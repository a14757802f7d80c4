"""The package holds only what the pipeline runs.

The five commands run in-process under cProfile on the benchmark's two
models and on a model with every other dynamics variant and expression
node.  Every module-level function and class of horizon_abs must be
reached, apart from the short list below.  Code that only tests use
lives in tests/oracles.py.
"""

import cProfile
import importlib
import inspect
import json
import pkgutil

import horizon_abs
from horizon_abs import cli

from conftest import FIVE_AGENTS, heterogeneous_doc, ring_doc, ring_workloads

FIVE_AGENTS_FLAGS = ["--steps", "12", "--lambda", "1=0.35", "--lambda", "5=0.35"]

ALLOWED = {
    # error and sliver paths, which their own tests cover
    "cli._Parser",  # its one method maps argparse usage errors to exit code 1
    "grid.locate_many",  # names the cell a state left, in a failed validation
    "integrate._raise_if_failed",  # a failed audit
    "model.agents_error",  # an expression error during a batch
    "grid._halton",  # the sliver fallback of witness_in_cell_ball
    "grid._witness_sweep",
    "planner._first_failing_goal",  # explains an unsatisfiable cascade
    "controller.integrate_reference",  # wrapped by name by perfbench/trace_cli.py
    "controller.ReferenceTrajectory",  # the type integrate_reference returns
}


def surface_doc():
    """Every dynamics variant, with norm, unary minus, powers, a division
    and sqrt in the expression agent.  Agent 1's goal is claimable only at step 1, so
    the plan makes one step and every agent reaches a Post and the
    closed loop.  Agent 6's M is halved, so that one of its reference rows
    binds and runs again saturated."""
    doc = heterogeneous_doc()
    for agent in doc["agents"]:
        if agent["dynamics"]["type"] == "expression":
            agent["dynamics"]["exprs"][1] = "-0.1*norm(x_i)^2 + sqrt(1 + x_j1[2]^2) / 2"
        if agent["id"] == 6:
            agent["M"] *= 0.5
    goal = {"box": [[-1.0, -1.0], [1.0, 1.0]], "window": [0.2, 0.3], "relative": False}
    doc["spec"] = {"1": {"goals": [goal]}}
    return doc


def definitions():
    """Module-level functions and classes defined in horizon_abs, by
    qualified name, with the code objects that count as reaching them.
    Exception classes are raised only on error paths and are left out."""
    out = {}
    for info in pkgutil.iter_modules(horizon_abs.__path__):
        module = importlib.import_module(f"horizon_abs.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                members = [inspect.unwrap(getattr(v, "fget", v)) for v in vars(obj).values()]
                codes = {m.__code__ for m in members if inspect.isfunction(m)}
            elif inspect.isfunction(inspect.unwrap(obj)):
                codes = {inspect.unwrap(obj).__code__}
            else:
                continue
            out[f"{info.name}.{name}"] = codes
    return out


def test_the_pipeline_reaches_every_definition(tmp_path, capsys):
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps(ring_doc(1)))
    surface_path = tmp_path / "surface.json"
    surface_path.write_text(json.dumps(surface_doc()))
    runs = [
        (FIVE_AGENTS, FIVE_AGENTS_FLAGS),
        (ring_path, ring_workloads().RING_FLAGS),
        (surface_path, ["--steps", "4"]),
    ]
    profiler = cProfile.Profile()
    for k, (model, flags) in enumerate(runs):
        common = ["--model", str(model), "--out", str(tmp_path / f"out{k}")] + flags
        for command in ("abstract", "plan", "validate", "render", "chain"):
            code = profiler.runcall(cli.main, [command] + common)
            assert code == 0, (model, command, capsys.readouterr().err)
    assert json.loads((tmp_path / "out2" / "plan.json").read_text())["m"] >= 1
    reached = {entry.code for entry in profiler.getstats()}
    unreached = sorted(
        name for name, codes in definitions().items()
        if name not in ALLOWED and not codes & reached
    )
    assert unreached == []
