#!/usr/bin/env python3
"""horizon-abs benchmark: the time from a model file to a validated plan.

    python3 perfbench/run.py --workload five_agents|ring_product \
        --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file.  It
runs the real horizon-abs CLI (src/ on PYTHONPATH, one child
process at a time) through ``abstract -> plan -> validate -> render ->
chain`` as often as --seconds allows, checks every output and prints
medians.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it alternates untraced and traced pipelines and
holds the per-layer metrics instead.  The line before it is a detailed
report (environment, every sample, artifact hashes, per-function trace
totals).  See perfbench/README.md for every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
# every run must end well inside three minutes
HARD_LIMIT_S = 170.0
COMMANDS = ("abstract", "plan", "validate", "render", "chain")
# Rounds re-run in turn in a finished pipeline's directory while time is
# left; when the next one does not fit, the last (cheapest) one is tried.
# Two of three rounds skip plan and validate, so the commands under a
# second, whose single samples are the noisiest, get the most samples.
REPEAT_ROUNDS = (
    ("abstract", "plan", "validate", "render"),
    ("abstract", "render"),
    ("abstract", "render"),
)
# the command whose output each artifact is; discretization.json is
# written by abstract and again by plan, and hashed after plan
ARTIFACTS = {
    "bounds.json": "abstract",
    "discretization.json": "plan",
    "plan.json": "plan",
    "synth_log.json": "plan",
    "trajectory.csv": "validate",
    "validation.json": "validate",
    "figure.svg": "render",
    "next_model.json": "chain",
}
# what the horizon-abs console script runs
CLI_ENTRY = "import sys; from horizon_abs.cli import main; sys.exit(main())"
# End-to-end times are reported at the speed of a machine on which
# calibrate.py takes this long: each sample is its wall time divided by
# the calibration run just before it, times this constant.
CALIBRATION_REF_S = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "abstract_s": "s",
    "plan_s": "s",
    "validate_s": "s",
    "render_s": "s",
    "valid_plan_s": "s",
    "peak_rss_mb": "MB",
}

# The inclusive times of expr.eval_ast, planner.forward_layers and
# planner.backward_prune are not metrics: each is exactly 0 on one
# workload, where that layer does no work, and a time that reads 0 on
# every run cannot be told from one that was never measured.  The report's
# per-function table keeps them.
PER_LAYER_UNITS = {
    "grid.build_s": "s",
    "grid.cells_built": "count",
    "grid.label_s": "s",
    "grid.label_cells_scanned": "count",
    "grid.intersect_s": "s",
    "grid.intersect_calls": "count",
    "grid.witness_calls": "count",
    "grid.witness_hit_ratio": "ratio",
    "abstraction.post_requests": "count",
    "abstraction.configs_integrated": "count",
    "abstraction.post_hit_ratio": "ratio",
    "abstraction.post_s": "s",
    "controller.endpoints_s": "s",
    "controller.endpoint_batches": "count",
    "controller.rows_per_batch": "rows/batch",
    "model.eval_f_calls": "count",
    "model.eval_f_rows_per_call": "rows/call",
    "model.eval_f_s": "s",
    "expr.eval_calls": "count",
    "planner.search_s": "s",
    "planner.product_states": "count",
    "planner.cascade_paths_tried": "count",
    "planner.goal_table_s": "s",
    "sim.closed_loop_s": "s",
    "abstraction.reference_for_calls": "count",
    "abstraction.reference_for_s": "s",
    "controller.integrate_reference_s": "s",
    "integrate.rk4_dense_calls": "count",
    "integrate.rk4_endpoint_calls": "count",
    "integrate.audit_calls": "count",
    "planner.extract_controls_s": "s",
    "sim.validate_plan_s": "s",
    "sim.csv_write_s": "s",
    "sim.csv_read_s": "s",
    "render.svg_s": "s",
    "model.parse_s": "s",
    "model.validate_bounds_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(Exception):
    pass


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment(setups):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": setups[0]["python"] if setups else None,
        "numpy": setups[0]["numpy"] if setups else None,
    }


class Workload:
    """Model file and flags of one workload, made from the seed."""

    def __init__(self, name, seed, run):
        self.seed = seed
        if name == "five_agents":
            self.model = str(ROOT / workloads.FIVE_AGENTS_MODEL)
            self.flags = workloads.FIVE_AGENTS_FLAGS
            self.strategy = "cascade"
        else:
            self.flags = workloads.RING_FLAGS
            self.strategy = "auto"
            self.model = self._generate_ring(run)
        self.model_doc = json.loads(Path(self.model).read_text(encoding="utf-8"))
        self.model_sha256 = sha256_file(self.model)

    def _generate_ring(self, run):
        skeleton = workloads.ring_skeleton()
        skeleton_path = run.work / "ring_skeleton.json"
        skeleton_path.write_text(json.dumps(skeleton, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        gen = run.work / "gen"
        rec = run.cli("gen-abstract", ["abstract", "--model", str(skeleton_path), "--out", str(gen)] + self.flags)
        if rec["exit"] != 0:
            raise ChildFailed("abstract on the ring skeleton failed; no goals can be placed")
        disc = json.loads((gen / "discretization.json").read_text(encoding="utf-8"))
        doc = workloads.ring_model(skeleton, disc, self.seed)
        path = run.work / "ring_product.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def command(self, cmd, out):
        args = [cmd, "--model", self.model, "--out", str(out)] + self.flags
        if cmd == "abstract":
            args += ["--seed", str(self.seed)]
        if cmd == "plan":
            args += ["--strategy", self.strategy]
        return args

    def probe_args(self):
        steps = self.flags[self.flags.index("--steps") + 1]
        lams = [self.flags[k + 1] for k, flag in enumerate(self.flags) if flag == "--lambda"]
        return [self.model, steps] + lams


class Run:
    def __init__(self, args):
        self.args = args
        self.t0 = time.perf_counter()
        self.work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.logs = self.work / "logs"
        self.logs.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("HORIZON_ABS_THREADS", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.calibrated = not args.trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_kb = 0

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)

    def child(self, tag, argv):
        """Run one child to completion; returns (exit code, wall s, rusage, stderr tail)."""
        timeout = self.remaining()
        if timeout <= 1.0:
            raise ChildFailed(f"{tag}: no time left before the {HARD_LIMIT_S:.0f} s limit")
        out_path, err_path = self.logs / f"{tag}.out", self.logs / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill(signum, frame):
                proc.kill()

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        return code, wall, usage, " | ".join(tail)

    def calibrate(self, tag):
        """Wall time of calibrate.py right now, or None in a traced run."""
        if not self.calibrated:
            return None
        code, wall, _, tail = self.child(f"{tag}-cal", [sys.executable, str(HERE / "calibrate.py")])
        if code != 0:
            raise ChildFailed(f"{tag}: calibration failed with exit code {code}: {tail}")
        return wall

    def cli(self, tag, cli_args, trace_path=None):
        if trace_path is None:
            argv = [sys.executable, "-c", CLI_ENTRY] + cli_args
        else:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(trace_path)] + cli_args
        cal = self.calibrate(tag)
        self.attempted += 1
        code, wall, usage, tail = self.child(tag, argv)
        if trace_path is None:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            self.fail(tag, f"exit code {code}: {tail}")
        return {
            "exit": code,
            "wall_s": wall,
            "cal_s": cal,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }

    def fail(self, tag, problem):
        self.failed += 1
        self.problems.append(f"{tag}: {problem}")

    def probe(self, wl, tag):
        cal = self.calibrate(tag)
        self.attempted += 1
        argv = [sys.executable, str(HERE / "probe.py")] + wl.probe_args()
        code, wall, usage, tail = self.child(tag, argv)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            self.fail(tag, f"exit code {code}: {tail}")
            return None
        info = json.loads((self.logs / f"{tag}.out").read_text(encoding="utf-8"))
        package = Path(info["package"]).resolve()
        if ROOT / "src" not in package.parents:
            raise ChildFailed(f"horizon_abs was imported from {package}, not from this checkout")
        info["wall_s"] = wall
        info["cal_s"] = cal
        return info

    def pipeline(self, wl, name, out, cmds, traced, reference):
        """Run cmds in order in out, then check what they wrote.

        A full pipeline is abstract -> plan -> validate -> render -> chain
        in a fresh directory; a repeat re-runs the shorter commands in a
        finished one, which must rewrite the same bytes.
        """
        record = {"traced": traced, "commands": {}}
        for cmd in cmds:
            tag = f"{name}-{cmd}"
            trace_path = self.logs / f"{tag}.trace.json" if traced else None
            rec = self.cli(tag, wl.command(cmd, out), trace_path)
            if traced and trace_path.exists():
                rec["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            record["commands"][cmd] = rec
        ok = {cmd: rec["exit"] == 0 for cmd, rec in record["commands"].items()}

        def load(artifact):
            return json.loads((out / artifact).read_text(encoding="utf-8"))

        def check(cmd, find_problems):
            """Fail cmd once if its output has problems or cannot be read."""
            if not ok.get(cmd):
                return
            try:
                problems = find_problems()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                problems = [f"unreadable output: {e!r}"]
            if problems:
                ok[cmd] = False
                self.fail(f"{name}-{cmd}", "; ".join(problems))

        def plan_problems():
            record["synth_log"] = load("synth_log.json")
            return checks.goals_claimed(wl.model_doc, load("plan.json"), load("discretization.json"))

        check("plan", plan_problems)
        check("validate", lambda: checks.validation_passed(load("validation.json")))
        check("chain", lambda: checks.chain_matches(
            load("next_model.json"), (out / "trajectory.csv").read_text(encoding="utf-8")))
        hashes = {a: sha256_file(out / a) for a in ARTIFACTS if (out / a).exists()}
        record["artifact_sha256"] = hashes
        if reference is not None:
            for artifact, writer in ARTIFACTS.items():
                if hashes.get(artifact) != reference["artifact_sha256"].get(artifact):
                    check(writer, lambda: [f"{artifact} bytes differ from the run's first pipeline"])
        record["wall_s"] = sum(rec["wall_s"] for rec in record["commands"].values())
        return record


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(sample):
    """A sample's wall time at the reference calibration speed."""
    return sample["wall_s"] / sample["cal_s"] * CALIBRATION_REF_S


def end_to_end(setups, pipes, repeats, peak_rss_kb):
    records = pipes + repeats
    samples = {cmd: [p["commands"][cmd] for p in records if cmd in p["commands"]] for cmd in COMMANDS}
    metrics = {
        "setup_s": median([scaled(s) for s in setups]),
        "abstract_s": median([scaled(s) for s in samples["abstract"]]),
        "plan_s": median([scaled(s) for s in samples["plan"]]),
        "validate_s": median([scaled(s) for s in samples["validate"]]),
        "render_s": median([scaled(s) for s in samples["render"]]),
        "valid_plan_s": median([scaled(p["commands"]["plan"]) + scaled(p["commands"]["validate"])
                                for p in records if "validate" in p["commands"]]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    raw = {
        "setup_s": median([s["wall_s"] for s in setups]),
        **{f"{cmd}_s": median([s["wall_s"] for s in samples[cmd]]) for cmd in COMMANDS},
    }
    return metrics, raw, samples


def per_layer(pipe, untraced_median_wall):
    """Per-layer metrics of one traced pipeline, summed over its five commands."""
    funcs, counts, by_command = {}, {}, {}
    startup = 0.0
    for cmd, rec in pipe["commands"].items():
        trace = rec.get("trace", {"functions": {}, "counts": {}})
        by_command[cmd] = {
            "functions": {name: entry for name, entry in trace["functions"].items() if entry["calls"]},
            "counts": trace["counts"],
        }
        for name, entry in trace["functions"].items():
            total = funcs.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        main = trace["functions"].get("cli.main", {"inclusive_s": 0.0})
        startup += rec["wall_s"] - main["inclusive_s"]

    def incl(name):
        return funcs.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return funcs.get(name, {}).get("calls", 0)

    def ratio(part, base):
        return part / base if base else 0.0

    explored = pipe.get("synth_log", {}).get("explored", {})
    strategy = pipe.get("synth_log", {}).get("strategy")
    requests = counts.get("abstraction.post_requests", 0)
    integrated = counts.get("controller.endpoint_rows", 0)
    batches = calls("controller.reference_endpoints")
    witness = calls("grid.witness_in_cell_ball")
    eval_f = calls("model.eval_f")
    metrics = {
        "grid.build_s": incl("grid.build_decomposition"),
        "grid.cells_built": counts.get("grid.cells_built", 0),
        "grid.label_s": incl("grid.label_cells"),
        "grid.label_cells_scanned": counts.get("grid.label_cells_scanned", 0),
        "grid.intersect_s": incl("grid.cells_intersecting_ball"),
        "grid.intersect_calls": calls("grid.cells_intersecting_ball"),
        "grid.witness_calls": witness,
        "grid.witness_hit_ratio": ratio(counts.get("grid.witness_hits", 0), witness),
        "abstraction.post_requests": requests,
        "abstraction.configs_integrated": integrated,
        "abstraction.post_hit_ratio": ratio(requests - integrated, requests),
        "abstraction.post_s": incl("abstraction.Abstraction.post_many"),
        "controller.endpoints_s": incl("controller.reference_endpoints"),
        "controller.endpoint_batches": batches,
        "controller.rows_per_batch": ratio(integrated, batches),
        "model.eval_f_calls": eval_f,
        "model.eval_f_rows_per_call": ratio(counts.get("model.eval_f_rows", 0), eval_f),
        "model.eval_f_s": incl("model.eval_f"),
        "expr.eval_calls": calls("expr.eval_ast"),
        "planner.search_s": incl("planner.cascade_synthesize") + incl("planner.product_synthesize"),
        "planner.product_states": max(explored.values()) if strategy == "product" else 0,
        "planner.cascade_paths_tried": sum(explored.values()) if strategy == "cascade" else 0,
        "planner.goal_table_s": incl("planner.goal_table"),
        "sim.closed_loop_s": incl("sim.simulate_closed_loop"),
        "abstraction.reference_for_calls": calls("abstraction.Abstraction.reference_for"),
        "abstraction.reference_for_s": incl("abstraction.Abstraction.reference_for"),
        "controller.integrate_reference_s": incl("controller.integrate_reference"),
        "integrate.rk4_dense_calls": calls("integrate.rk4_dense"),
        "integrate.rk4_endpoint_calls": calls("integrate.rk4_endpoint"),
        "integrate.audit_calls": calls("integrate.check_audit"),
        "planner.extract_controls_s": incl("planner.extract_controls"),
        "sim.validate_plan_s": incl("sim.validate_plan"),
        "sim.csv_write_s": incl("sim.trajectory_to_csv"),
        "sim.csv_read_s": incl("sim.trajectory_from_csv") + incl("sim.final_states_from_csv"),
        "render.svg_s": incl("render.render_svg"),
        "model.parse_s": incl("model.parse_model"),
        "model.validate_bounds_s": incl("model.validate_bounds"),
        "cli.self_s": funcs.get("cli.main", {}).get("self_s", 0.0),
        "cli.startup_s": startup,
        "trace.overhead_s": pipe["wall_s"] - untraced_median_wall,
    }
    return metrics, funcs, by_command


def measure(run, wl):
    """Set up and run pipelines until --seconds is used; returns (metrics, report).

    Untraced, a run makes two pipelines and then repeat rounds, with one
    set-up probe before each, so that set-up and the shorter commands are
    sampled across the whole run and not only at its start.  Traced, it
    alternates untraced and traced pipelines.
    """
    args = run.args
    start = time.perf_counter()
    setups, pipes, repeats = [], [], []

    def fits(cost):
        return (time.perf_counter() - start + cost <= args.seconds
                and run.remaining() >= 1.25 * cost + 5.0)

    def probe():
        info = run.probe(wl, f"setup{len(pipes)}-{len(repeats)}")
        if info is not None:
            setups.append(info)

    while True:
        if not (args.trace and setups):
            probe()
        traced = bool(args.trace) and len(pipes) % 2 == 1
        name = f"p{len(pipes)}"
        out = run.work / name
        pipes.append(run.pipeline(wl, name, out, COMMANDS, traced, pipes[0] if pipes else None))
        last = pipes[-1]["wall_s"]
        if len(pipes) >= 2 and not (args.trace and fits(last)):
            break
        if run.remaining() < 1.25 * last + 5.0:
            break
        shutil.rmtree(out)
    def cost(rec):
        return rec["wall_s"] + (rec["cal_s"] or 0.0)

    while not args.trace:
        probe_cost = cost(setups[-1]) if setups else 0.0
        for cmds in (REPEAT_ROUNDS[len(repeats) % len(REPEAT_ROUNDS)], REPEAT_ROUNDS[-1]):
            if fits(probe_cost + sum(cost(pipes[-1]["commands"][cmd]) for cmd in cmds)):
                break
        else:
            break
        probe()
        repeats.append(run.pipeline(wl, f"r{len(repeats)}", out, cmds, False, pipes[0]))
    untraced = [p for p in pipes if not p["traced"]]
    report = {
        "setup": setups,
        "pipelines": len(pipes),
        "repeats": len(repeats),
        "artifact_sha256": pipes[0]["artifact_sha256"],
        "synth_log": pipes[0].get("synth_log"),
    }
    if not args.trace:
        metrics, raw, samples = end_to_end(setups, untraced, repeats, run.peak_rss_kb)
        report["raw_median_wall_s"] = raw
        report["calibration_ref_s"] = CALIBRATION_REF_S
        for key in ("wall_s", "cal_s", "cpu_s"):
            report[f"command_{key}"] = {cmd: [s[key] for s in samples[cmd]] for cmd in COMMANDS}
    else:
        base = median([p["wall_s"] for p in untraced])
        layers = [per_layer(p, base) for p in pipes if p["traced"]]
        metrics = {name: median([m[name] for m, _, _ in layers]) for name in PER_LAYER_UNITS}
        report["traced_wall_s"] = [p["wall_s"] for p in pipes if p["traced"]]
        report["untraced_wall_s"] = [p["wall_s"] for p in untraced]
        report["functions"] = layers[-1][1]
        report["by_command"] = layers[-1][2]
    return metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/horizon_abs/cli.py", workloads.FIVE_AGENTS_MODEL)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a horizon-abs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    run = Run(args)
    try:
        wl = Workload(args.workload, args.seed, run)
        metrics, report = measure(run, wl)
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        for line in run.problems:
            print(f"perfbench: {line}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(report["setup"]),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "model_sha256": wl.model_sha256,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "problems": run.problems,
    })
    print(f"{args.workload} seed {args.seed}: {report['pipelines']} pipelines, "
          f"{run.attempted} operations, {run.failed} failed (fail_frac {report['fail_frac']})")
    for line in run.problems:
        print(f"  FAILED {line}")
    raw = report.get("raw_median_wall_s", {})
    for name, unit in units.items():
        note = f"  (raw median wall {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name:34s} {metrics[name]:.6g} {unit}{note}")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
