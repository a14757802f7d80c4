"""Command line front end.

Every artifact is serialized with sorted keys and repr floats, so a
fixed model file, fixed flags, and a fixed seed reproduce the output
byte for byte.  Wall-clock timings go to stderr only.

Only the modules every command runs are imported here; each command
imports the rest where it starts, so it compiles no module it never runs.
"""

import argparse
import atexit
import gc
import json
import math
import os
import sys
import time

from . import model as model_mod
from . import integrate, wellposed
from .errors import (
    HorizonError, ModelError, PlanConsistencyError, UnsatisfiableError, ValidationError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves
    # for unsatisfiable specifications; remap to the I/O error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sp):
    sp.add_argument("--model", required=True, help="model file (JSON)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--steps", type=int, default=None,
                    help="number of transition intervals (default: derived)")
    sp.add_argument("--lambda", dest="lam", action="append", default=[],
                    metavar="I=V", help="per-agent interpolation weight override")
    sp.add_argument("--margin", type=float, default=wellposed.DEFAULT_MARGIN,
                    help="fraction of the open bounds to realize")
    sp.add_argument("--substeps", type=int, default=integrate.DEFAULT_SUBSTEPS,
                    help="integrator substeps per transition interval")
    sp.add_argument("--integ-tol", type=float, default=integrate.DEFAULT_INTEG_TOL,
                    help="step-halving audit tolerance")


def build_parser(command=None):
    """The horizon-abs parser; only ``command``, the one argparse runs, gets its flags."""
    p = _Parser(prog="horizon-abs",
                description="finite-horizon abstractions and plan synthesis "
                            "for coupled multi-agent systems")
    sub = p.add_subparsers(dest="command", required=True)
    specs = [
        ("abstract", "discretize and report bounds", cmd_abstract),
        ("plan", "synthesize a discrete plan", cmd_plan),
        ("validate", "simulate the closed loop against a plan", cmd_validate),
        ("render", "draw the run as an SVG figure", cmd_render),
        ("chain", "emit a follow-on model from a trajectory", cmd_chain),
    ]
    for name, help_text, func in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if name != command:
            continue
        _add_common(sp)
        if name == "abstract":
            sp.add_argument("--seed", type=int, default=0, help="sampling seed")
            sp.add_argument("--samples", type=int, default=1000,
                            help="sample count for the bounds report")
        if name == "plan":
            sp.add_argument("--strategy", choices=["auto", "cascade", "product"],
                            default="auto", help="synthesis strategy")
            sp.add_argument("--budget", type=int, default=64,
                            help="parent paths tried per agent in cascade synthesis")
            sp.add_argument("--cap", type=int, default=10**6,
                            help="state cap for product synthesis")
    return p


def _read_text(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ModelError(f"cannot read {path}: {e}") from None


def _load_model(path):
    """The parsed model and the file's bytes."""
    data = _read_text(path)
    return model_mod.parse_model(data.decode("utf-8")), data


def _model_hash(data):
    # the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before) loads no OpenSSL
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return __import__(name).sha256(data).hexdigest()
        except ImportError:
            pass


def _parse_lambda(model, items):
    lam = {}
    for item in items:
        try:
            key, _, value = item.partition("=")
            lam[int(key)] = float(value)
        except ValueError:
            raise ModelError(f"bad --lambda override {item!r}, expected I=V") from None
    for i in lam:
        if i not in model.agent_ids:
            raise ModelError(f"--lambda names unknown agent {i}")
    return lam


def _synthesize(model, args):
    lam = _parse_lambda(model, args.lam)
    return wellposed.synthesize(model, lam=lam, steps=args.steps, margin=args.margin)


def _params_doc(params):
    return {
        "dt": float(params.dt),
        "steps": int(params.steps),
        "margin": float(params.margin),
        "lam": {str(i): float(v) for i, v in sorted(params.lam.items())},
        "mu": {f"{j}->{i}": float(v) for (j, i), v in sorted(params.mu.items())},
        "d_max": {str(i): float(v) for i, v in sorted(params.d_max.items())},
    }


def _params_from_doc(model, doc):
    """The discretization of a plan's params block, re-derived from its
    lam, mu, steps and margin.  A block that differs from the re-derived
    one's ``_params_doc`` is refused before a grid is built, so no
    recorded d_max sizes a grid."""
    try:
        block = doc["params"]
        lam = {int(i): float(v) for i, v in block["lam"].items()}
        mu = {}
        for key, v in block["mu"].items():
            j, _, i = key.partition("->")
            mu[(int(j), int(i))] = float(v)
        steps, margin = int(block["steps"]), float(block["margin"])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelError(f"malformed discretization block: {e}") from None
    try:
        params = wellposed.synthesize(model, lam, mu, steps, margin)
    except HorizonError as e:
        raise PlanConsistencyError(f"plan.json params admit no discretization: {e}") from None
    if _params_doc(params) != block:
        raise PlanConsistencyError(
            "plan.json params differ from the discretization their lam, mu, steps "
            "and margin give"
        )
    return params


def _write_json(out_dir, name, doc):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise HorizonError(f"{name} was not written: {e}") from None
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _write_text(out_dir, name, text):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)


def _flag_settings(args):
    return integrate.check_settings(
        args.substeps, args.integ_tol, names=("--substeps", "--integ-tol")
    )


def _build(model, params, substeps, integ_tol):
    from . import abstraction

    return abstraction.build_abstraction(model, params, substeps=substeps, integ_tol=integ_tol)


def _discretization_doc(model, params, abstraction):
    agents = {}
    for i in model.agent_ids:
        dec = abstraction.decs[i]
        bound_dt = wellposed.dt_bound(model, params, i)
        agents[str(i)] = {
            "cells": len(dec.index_set),
            "initiating": len(dec.initiating_set),
            "side": float(dec.side),
            "anchor": [float(v) for v in dec.anchor],
            "region_center": [float(v) for v in dec.region.center],
            "region_radius": float(dec.region.radius),
            "inner_radius": float(dec.inner.radius),
            "dt_bound": None if math.isinf(bound_dt) else float(bound_dt),
            "dmax_bound": float(wellposed.dmax_bound(model, params, i, params.dt)),
            "control_radius": float(abstraction.radius(i)),
        }
    return {
        "horizon": float(model.horizon),
        "tau": float(model.tau),
        "params": _params_doc(params),
        "agents": agents,
    }


def cmd_abstract(args):
    if args.seed < 0:
        raise ModelError(f"--seed must be an integer >= 0, got {args.seed}")
    if not 1 <= args.samples <= model_mod.MAX_SAMPLES:
        raise ModelError(
            f"--samples must be an integer from 1 to {model_mod.MAX_SAMPLES}, got {args.samples}"
        )
    model, _ = _load_model(args.model)
    params = _synthesize(model, args)
    abstraction = _build(model, params, *_flag_settings(args))
    _ensure_out(args)
    _write_json(args.out, "discretization.json", _discretization_doc(model, params, abstraction))
    report = model_mod.validate_bounds(model, samples=args.samples, seed=args.seed)
    _write_json(args.out, "bounds.json", {
        "agents": {str(i): e for i, e in sorted(report.entries.items())},
        "violations": report.violations,
        "samples": args.samples,
        "seed": args.seed,
    })
    for line in report.violations:
        print(f"warning: {line}", file=sys.stderr)
    print(f"abstracted {len(model.agents)} agents into {args.out}")
    return 0


def cmd_plan(args):
    if args.budget < 1:
        raise ModelError(f"--budget must be an integer >= 1, got {args.budget}")
    if args.cap < 1:
        raise ModelError(f"--cap must be an integer >= 1, got {args.cap}")
    from . import plandoc, planner

    model, data = _load_model(args.model)
    params = _synthesize(model, args)
    abstraction = _build(model, params, *_flag_settings(args))
    strategy = args.strategy
    if strategy == "auto":
        strategy = "cascade" if planner.topological_order(model) else "product"
    t0 = time.monotonic()
    try:
        if strategy == "cascade":
            plan = planner.cascade_synthesize(model, abstraction, budget=args.budget)
        else:
            plan = planner.product_synthesize(model, abstraction, cap=args.cap)
    except UnsatisfiableError:
        # "unsatisfiable" rests on every Post the search cut
        abstraction.audit_endpoints()
        raise
    elapsed = time.monotonic() - t0
    # the plan's own transitions are the Posts plan.json asks anyone to trust
    abstraction.audit_endpoints(
        (i, config)
        for i, configs in plandoc.plan_configs(model, plan.cells, plan.m).items()
        for config in configs
    )
    plan.model_hash = _model_hash(data)
    _ensure_out(args)
    doc = plandoc.plan_to_doc(plan)
    doc["params"] = _params_doc(params)
    doc["substeps"] = args.substeps
    doc["integ_tol"] = args.integ_tol
    _write_json(args.out, "discretization.json", _discretization_doc(model, params, abstraction))
    _write_json(args.out, "plan.json", doc)
    _write_json(args.out, "synth_log.json", {
        "strategy": plan.strategy,
        "m": plan.m,
        "steps": plan.steps,
        "explored": {str(i): n for i, n in sorted(plan.explored.items())},
        "abstraction": {str(i): s for i, s in sorted(abstraction.summary().items())},
    })
    print(f"plan synthesis took {elapsed:.2f}s", file=sys.stderr)
    print(f"plan with {plan.m} steps ({plan.strategy}) written to {args.out}")
    return 0


def _load_plan(args, model, data):
    """plan.json of ``args.out``: the plan, the discretization it was made
    on and its integrator settings, each as cmd_plan writes it."""
    from . import plandoc

    path = os.path.join(args.out, "plan.json")
    try:
        doc = json.loads(_read_text(path).decode("utf-8"))
    except ValueError as e:
        raise ModelError(f"cannot parse {path}: {e}") from None
    plan = plandoc.plan_from_doc(doc)
    if plan.model_hash != _model_hash(data):
        raise ModelError(
            "plan.json was synthesized from a different model file (hash mismatch)"
        )
    params = _params_from_doc(model, doc)
    settings = integrate.check_settings(
        doc.get("substeps"), doc.get("integ_tol"),
        names=("plan.json substeps", "plan.json integ_tol"),
    )
    return plan, params, settings


def cmd_validate(args):
    from . import planner, sim

    model, data = _load_model(args.model)
    plan, params, settings = _load_plan(args, model, data)
    # the plan's settings, so the re-derived Posts match the ones it was planned on
    abstraction = _build(model, params, *settings)
    schedule = planner.extract_controls(model, abstraction, plan)
    t0 = time.monotonic()
    traj = sim.simulate_closed_loop(model, abstraction, schedule, plan.m)
    elapsed = time.monotonic() - t0
    report = sim.validate_plan(model, abstraction, plan, traj)
    _ensure_out(args)
    _write_text(args.out, "trajectory.csv", sim.trajectory_to_csv(traj))
    _write_json(args.out, "validation.json", report.to_doc())
    print(f"closed-loop simulation took {elapsed:.2f}s", file=sys.stderr)
    if not report.passed:
        bad = [e for e in report.entries if not e["ok"]]
        first = bad[0]
        raise ValidationError(
            f"agent {first['agent']} left its planned cell at step {first['step']} "
            f"(margin {first['margin']:.3e}; {len(bad)} violations total)"
        )
    margin_txt = "n/a" if report.min_margin is None else f"{report.min_margin:.6g}"
    print(f"validation passed, min margin {margin_txt}")
    return 0


def cmd_render(args):
    from . import grid, plandoc, render, sim

    model, data = _load_model(args.model)
    if os.path.exists(os.path.join(args.out, "plan.json")):
        plan, params, (substeps, _) = _load_plan(args, model, data)
        plandoc.check_plan_lists(model, plan)
    else:
        plan, params = None, _synthesize(model, args)
    # no Abstraction: the figure reads regions and the boxes the plan names
    families = {a.id: model_mod.reach_family(model, a.id) for a in model.agents}
    decs = grid.build_decompositions(families, params)
    traj = None
    traj_path = os.path.join(args.out, "trajectory.csv")
    if os.path.exists(traj_path):
        traj = sim.trajectory_from_csv(_read_text(traj_path).decode("utf-8"), model)
        if plan is not None:
            sim.check_node_times(traj, params.dt, plan.m, substeps)
    svg = render.render_svg(model, families, decs, plan=plan, traj=traj)
    _ensure_out(args)
    _write_text(args.out, "figure.svg", svg)
    print(f"figure written to {os.path.join(args.out, 'figure.svg')}")
    return 0


def _check_validation(out_dir):
    """A ValidationError when ``out_dir`` holds a validation.json whose run
    failed, so that no window is chained from it; a ModelError when that
    file cannot be read.  With no such file there is nothing to check."""
    path = os.path.join(out_dir, "validation.json")
    if not os.path.exists(path):
        return
    try:
        passed = json.loads(_read_text(path).decode("utf-8"))["passed"]
    except (ValueError, KeyError, TypeError) as e:
        raise ModelError(f"cannot parse {path}: {e}") from None
    if type(passed) is not bool:
        raise ModelError(f"cannot parse {path}: 'passed' is {passed!r}, not a boolean")
    if not passed:
        raise ValidationError(f"{path} records a failed validation; no follow-on model")


def cmd_chain(args):
    from . import sim

    model, data = _load_model(args.model)
    _check_validation(args.out)
    nodes = None  # with plan.json present, the plan's closed-loop node times
    if os.path.exists(os.path.join(args.out, "plan.json")):
        plan, params, (substeps, _) = _load_plan(args, model, data)
        nodes = (params.dt, plan.m, substeps)
    traj_path = os.path.join(args.out, "trajectory.csv")
    finals = sim.final_states_from_csv(_read_text(traj_path).decode("utf-8"), model, nodes)
    doc = json.loads(json.dumps(model.raw))
    for entry in doc["agents"]:
        entry["x0"] = [float(v) for v in finals[int(entry["id"])]]
    _write_json(args.out, "next_model.json", doc)
    print(f"follow-on model written to {os.path.join(args.out, 'next_model.json')}")
    return 0


def main(argv=None):
    atexit.unregister(gc.freeze)  # frozen at exit, numpy's objects skip the collections
    atexit.register(gc.freeze)  # of interpreter finalization (25-35 ms); once per process
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(next((a for a in argv if a[:1] != "-"), None))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HorizonError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
