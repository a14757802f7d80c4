"""Command line front end.

Every artifact is serialized with sorted keys and repr floats, so a
fixed model file, fixed flags, and a fixed seed reproduce the output
byte for byte.  Wall-clock timings go to stderr only.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import abstraction as abstraction_mod
from . import model as model_mod
from . import planner, render, sim, wellposed
from .errors import HorizonError, ModelError, ValidationError
from .integrate import DEFAULT_INTEG_TOL, DEFAULT_SUBSTEPS


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves
    # for unsatisfiable specifications; remap to the I/O error code.
    def error(self, message):
        self.print_usage(sys.stderr)
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
    sp.add_argument("--substeps", type=int, default=DEFAULT_SUBSTEPS,
                    help="integrator substeps per transition interval")
    sp.add_argument("--integ-tol", type=float, default=DEFAULT_INTEG_TOL,
                    help="step-halving audit tolerance")
    sp.add_argument("--budget", type=int, default=64,
                    help="parent paths tried per agent in cascade synthesis")
    sp.add_argument("--cap", type=int, default=10**6,
                    help="state cap for product synthesis")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument("--samples", type=int, default=1000,
                    help="sample count for the bounds report")


def build_parser():
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
        _add_common(sp)
        if name == "plan":
            sp.add_argument("--strategy", choices=["auto", "cascade", "product"],
                            default="auto", help="synthesis strategy")
        sp.set_defaults(func=func)
    return p


def _read_text(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ModelError(f"cannot read {path}: {e}") from None


def _load_model(path):
    data = _read_text(path)
    model = model_mod.parse_model(data.decode("utf-8"))
    return model, hashlib.sha256(data).hexdigest()


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


def _params_from_doc(doc):
    try:
        mu = {}
        for key, v in doc["mu"].items():
            j, _, i = key.partition("->")
            mu[(int(j), int(i))] = float(v)
        return wellposed.DiscretizationParams(
            dt=float(doc["dt"]),
            steps=int(doc["steps"]),
            lam={int(i): float(v) for i, v in doc["lam"].items()},
            mu=mu,
            d_max={int(i): float(v) for i, v in doc["d_max"].items()},
            margin=float(doc["margin"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(f"malformed discretization block: {e}") from None


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


def _build(model, params, args):
    return abstraction_mod.build_abstraction(
        model, params, substeps=args.substeps, integ_tol=args.integ_tol
    )


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
    model, _ = _load_model(args.model)
    params = _synthesize(model, args)
    abstraction = _build(model, params, args)
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
    model, model_hash = _load_model(args.model)
    params = _synthesize(model, args)
    abstraction = _build(model, params, args)
    strategy = args.strategy
    if strategy == "auto":
        strategy = "cascade" if planner.topological_order(model) else "product"
    t0 = time.monotonic()
    if strategy == "cascade":
        plan = planner.cascade_synthesize(model, abstraction, budget=args.budget)
    else:
        plan = planner.product_synthesize(model, abstraction, cap=args.cap)
    elapsed = time.monotonic() - t0
    plan.model_hash = model_hash
    _ensure_out(args)
    doc = planner.plan_to_doc(plan)
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


def _load_plan(args, model_hash):
    path = os.path.join(args.out, "plan.json")
    try:
        doc = json.loads(_read_text(path).decode("utf-8"))
    except ValueError as e:
        raise ModelError(f"cannot parse {path}: {e}") from None
    if doc.get("model_hash") and doc["model_hash"] != model_hash:
        raise ModelError(
            "plan.json was synthesized from a different model file (hash mismatch)"
        )
    plan = planner.plan_from_doc(doc)
    params = _params_from_doc(doc["params"]) if "params" in doc else None
    return plan, params, doc


def cmd_validate(args):
    model, model_hash = _load_model(args.model)
    plan, params, doc = _load_plan(args, model_hash)
    if params is None:
        params = _synthesize(model, args)
    substeps = int(doc.get("substeps", args.substeps))
    integ_tol = float(doc.get("integ_tol", args.integ_tol))
    abstraction = _build(model, params, args)
    schedule = planner.extract_controls(model, abstraction, plan)
    t0 = time.monotonic()
    traj = sim.simulate_closed_loop(
        model, abstraction, schedule, plan.m, substeps=substeps, integ_tol=integ_tol
    )
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
    model, model_hash = _load_model(args.model)
    plan = None
    params = None
    if os.path.exists(os.path.join(args.out, "plan.json")):
        plan, params, _ = _load_plan(args, model_hash)
        planner.check_plan_lists(model, plan)
    if params is None:
        params = _synthesize(model, args)
    abstraction = _build(model, params, args)
    traj = None
    traj_path = os.path.join(args.out, "trajectory.csv")
    if os.path.exists(traj_path):
        traj = sim.trajectory_from_csv(_read_text(traj_path).decode("utf-8"))
    svg = render.render_svg(model, abstraction.families, abstraction.decs, plan=plan, traj=traj)
    _ensure_out(args)
    _write_text(args.out, "figure.svg", svg)
    print(f"figure written to {os.path.join(args.out, 'figure.svg')}")
    return 0


def cmd_chain(args):
    model, _ = _load_model(args.model)
    traj_path = os.path.join(args.out, "trajectory.csv")
    finals = sim.final_states_from_csv(_read_text(traj_path).decode("utf-8"))
    doc = json.loads(json.dumps(model.raw))
    for entry in doc["agents"]:
        i = int(entry["id"])
        if i not in finals:
            raise ModelError(f"trajectory file has no samples for agent {i}")
        entry["x0"] = [float(v) for v in finals[i]]
    _write_json(args.out, "next_model.json", doc)
    print(f"follow-on model written to {os.path.join(args.out, 'next_model.json')}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HorizonError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
