"""End-to-end command line runs: artifacts, determinism, exit codes."""

import atexit
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from horizon_abs import cli, grid
from horizon_abs.errors import HorizonError

from conftest import (
    FIVE_AGENTS, heterogeneous_doc, make_model, pair_doc, ring_doc, ring_workloads, run_cli,
)

PAIR_FLAGS = ["--steps", "5", "--lambda", "1=0.55", "--lambda", "2=0.55"]
# figure.svg of the five_agents benchmark run (tests/test_artifact_bytes.py)
FIVE_AGENTS_FIGURE = "68139c730c656b60ee75653dd50e953a9e8c375aba5f396cc828eeb025102864"
# figure.svg of the pair model rendered with PAIR_FLAGS and no plan
PAIR_GRID_FIGURE = "b87d060b0d33c54ec7edc6868432c8da22339945b97bb3892f75835bbd217b03"


def write_model(path, doc=None):
    doc = doc or pair_doc()
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@pytest.fixture(scope="module")
def planned_run(tmp_path_factory):
    """One planned and validated pair run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    model_path = write_model(root / "model.json")
    out = root / "out"
    plan = run_cli(["plan", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert plan.returncode == 0, plan.stderr
    validate = run_cli(["validate", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert validate.returncode == 0, validate.stderr
    return model_path, out, plan, validate


def test_abstract_writes_reports(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["abstract", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0
    assert "abstracted 2 agents" in res.stdout
    disc = json.loads((out / "discretization.json").read_text())
    assert disc["params"]["steps"] == 5
    assert disc["params"]["dt"] == pytest.approx(0.2, rel=1e-12)
    assert set(disc["agents"]) == {"1", "2"}
    assert disc["agents"]["1"]["dt_bound"] is None  # unconstrained drifting agent
    assert disc["agents"]["2"]["dt_bound"] > 0.2
    assert disc["agents"]["1"]["cells"] > 0
    bounds = json.loads((out / "bounds.json").read_text())
    assert set(bounds["agents"]) == {"1", "2"}
    assert all("agent" in v for v in bounds["violations"])  # report-only findings


def test_bounds_report_is_clean_for_a_drifting_agent(tmp_path):
    from conftest import single_doc

    model_path = write_model(tmp_path / "model.json", single_doc())
    out = tmp_path / "out"
    res = run_cli(["abstract", "--model", model_path, "--out", out])
    assert res.returncode == 0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["violations"] == []
    assert bounds["agents"]["1"]["sup_f"] == 0.0  # drift-free dynamics


def test_plan_artifacts(planned_run):
    model_path, out, plan, _ = planned_run
    assert "plan with 5 steps (cascade)" in plan.stdout
    assert "took" in plan.stderr and "took" not in plan.stdout  # timings on stderr
    doc = json.loads((out / "plan.json").read_text())
    assert doc["m"] == 5 and doc["strategy"] == "cascade"
    assert doc["model_hash"] == hashlib.sha256(model_path.read_bytes()).hexdigest()
    assert set(doc["agents"]) == {"1", "2"}
    assert len(doc["agents"]["1"]["cells"]) == 6
    log = json.loads((out / "synth_log.json").read_text())
    assert log["strategy"] == "cascade" and log["m"] == 5
    assert set(log["abstraction"]) == {"1", "2"}


def test_validate_artifacts(planned_run):
    _, out, _, validate = planned_run
    assert "validation passed" in validate.stdout
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert report["min_margin"] > 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,agent,x1,x2,v1,v2"


def test_render_with_and_without_plan(planned_run, tmp_path):
    model_path, out, _, _ = planned_run
    res = run_cli(["render", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0
    svg = (out / "figure.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg

    # render integrates nothing and reads no integrator flag
    bare_out = tmp_path / "bare"
    res = run_cli(["render", "--model", model_path, "--out", bare_out, "--substeps", "0",
                   "--integ-tol", "nan"] + PAIR_FLAGS)
    assert res.returncode == 0
    bare = (bare_out / "figure.svg").read_text()
    assert bare.startswith("<svg") and "<polyline" not in bare


def test_chain_patches_initial_states(planned_run):
    from horizon_abs import sim

    model_path, out, _, _ = planned_run
    res = run_cli(["chain", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0, res.stderr
    assert "next_model.json" in res.stdout
    model = make_model(json.loads(model_path.read_text()))
    finals = sim.final_states_from_csv((out / "trajectory.csv").read_text(), model)
    doc = json.loads((out / "next_model.json").read_text())
    original = json.loads(model_path.read_text())
    assert doc["horizon"] == original["horizon"]
    assert doc["spec"] == original["spec"]
    for entry in doc["agents"]:
        i = entry["id"]
        assert entry["x0"] == [float(v) for v in finals[i]]
        assert entry["x0"] != original["agents"][i - 1]["x0"]


def test_artifacts_are_byte_deterministic(planned_run, tmp_path):
    model_path, out, _, _ = planned_run
    rerun = tmp_path / "rerun"
    assert run_cli(["plan", "--model", model_path, "--out", rerun] + PAIR_FLAGS).returncode == 0
    assert run_cli(["validate", "--model", model_path, "--out", rerun] + PAIR_FLAGS).returncode == 0
    assert run_cli(["render", "--model", model_path, "--out", rerun] + PAIR_FLAGS).returncode == 0
    run_cli(["render", "--model", model_path, "--out", out] + PAIR_FLAGS)
    for name in ("discretization.json", "plan.json", "trajectory.csv",
                 "validation.json", "figure.svg", "synth_log.json"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name


def test_seed_only_changes_the_bounds_sampling(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        res = run_cli(
            ["abstract", "--model", model_path, "--out", out, "--seed", seed] + PAIR_FLAGS
        )
        assert res.returncode == 0
        outs.append(json.loads((out / "bounds.json").read_text()))
    assert outs[0]["seed"] == 1 and outs[1]["seed"] == 2
    assert outs[0]["agents"]["2"]["sup_f"] != outs[1]["agents"]["2"]["sup_f"]


def test_exit_code_1_on_unreadable_or_invalid_input(tmp_path):
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", tmp_path / "missing.json", "--out", out])
    assert res.returncode == 1 and "error:" in res.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["plan", "--model", bad, "--out", out])
    assert res.returncode == 1 and "error:" in res.stderr

    res = run_cli(["frobnicate", "--model", bad, "--out", out])
    assert res.returncode == 1

    model_path = write_model(tmp_path / "model.json")
    res = run_cli(["plan", "--model", model_path, "--out", out, "--lambda", "7=0.4"])
    assert res.returncode == 1 and "unknown agent" in res.stderr


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(agents=[1]),
        lambda d: d["agents"][1].update(neighbors=5),
    ],
)
def test_exit_code_1_on_malformed_agent_entries(tmp_path, mutate):
    doc = pair_doc()
    mutate(doc)
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out"])
    assert res.returncode == 1 and "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_exit_code_2_on_unsatisfiable_spec(tmp_path):
    doc = pair_doc()
    doc["spec"]["1"]["goals"][0]["window"] = [0.45, 0.55]  # misses every instant
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out"] + PAIR_FLAGS)
    assert res.returncode == 2 and "no sampling instant" in res.stderr


def test_exit_code_2_when_the_product_cap_trips(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    res = run_cli(
        ["plan", "--model", model_path, "--out", tmp_path / "out",
         "--strategy", "product", "--cap", "1"] + PAIR_FLAGS
    )
    assert res.returncode == 2 and "state cap" in res.stderr


@pytest.mark.parametrize("case", ["cascade", "product cap"])
def test_an_unsatisfiable_verdict_rests_on_audited_posts(tmp_path, case):
    """Before plan exits 2, it audits every endpoint the search cut a Post
    from.  At a tolerance that agent 2's references fail, plan exits 1 with
    the audit's message instead, and writes no plan."""
    doc = pair_doc()
    flags = ["--strategy", "product", "--cap", "1"]
    if case == "cascade":
        doc["spec"]["2"]["goals"][0]["box"] = [[3.0, 3.0], [3.5, 3.5]]  # out of reach
        flags = ["--budget", "1"]
    out = tmp_path / "out"
    plan = ["plan", "--model", write_model(tmp_path / "model.json", doc), "--out", out]
    plan += PAIR_FLAGS + flags
    assert run_cli(plan).returncode == 2
    res = run_cli(plan + ["--integ-tol", "1e-30"])
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1].startswith(
        "error: reference of agent 2 audit: step-halving estimate "
    )
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("key, value", [("M", 1e200), ("reach_radius", 1e300)])
def test_a_region_past_the_int64_lattice_is_a_model_error(tmp_path, key, value):
    """A region whose grid bounds overflow int64 names its agent; no cast
    warning, and no grid of wrapped-around indices."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    doc["agents"][0][key] = value
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["abstract", "--model", model_path, "--out", tmp_path / "out", "--steps", "12",
                   "--lambda", "1=0.35", "--lambda", "5=0.35"])
    assert res.returncode == 1
    assert res.stderr.startswith("error: agent 1: the lattice of its region (radius ")
    assert res.stderr.endswith(") does not fit in int64\n")
    assert "Warning" not in res.stderr


@pytest.mark.parametrize("key, value", [
    ("reach_radius", 1e12), ("v_max", 1e300), ("x0", [1e308, 1e308]), ("x0", [1e16, 0.0]),
])
def test_a_region_that_cannot_be_gridded_is_a_model_error(tmp_path, key, value):
    """A lattice box of more than 2**26 cells (its masks would not fit in
    memory), one with faces past +-2**500 (its squared gaps overflow) and
    one whose cells are thinner than the float step at their coordinates
    name the agent and its box, for abstract and plan alike; nothing is
    written and nothing warns."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    doc["agents"][0][key] = value
    model_path = write_model(tmp_path / "model.json", doc)
    for command in ("abstract", "plan"):
        res = run_cli([command, "--model", model_path, "--out", tmp_path / "out", "--steps", "12",
                       "--lambda", "1=0.35", "--lambda", "5=0.35"])
        assert res.returncode == 1, res.stderr
        assert re.fullmatch(r"error: agent 1: its \d+x\d+ lattice box has over 2\*\*26 cells, "
                            r"faces past \+-2\*\*500 or cells under a float step\n", res.stderr)
        assert not (tmp_path / "out").exists()


def test_exit_code_3_on_infeasible_discretization(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out,
                   "--steps", "2"])  # dt = 0.5 >= tau
    assert res.returncode == 3 and "tau" in res.stderr

    res = run_cli(["plan", "--model", model_path, "--out", out,
                   "--lambda", "2=1.0"])
    assert res.returncode == 3

    res = run_cli(["plan", "--model", model_path, "--out", out,
                   "--margin", "1.01"] + PAIR_FLAGS)
    assert res.returncode == 3


def test_exit_code_4_on_a_corrupted_plan(planned_run, tmp_path):
    model_path, out, _, _ = planned_run
    corrupt_out = tmp_path / "corrupt"
    corrupt_out.mkdir()
    doc = json.loads((out / "plan.json").read_text())
    doc["agents"]["2"]["w"][0][0] += 0.05
    (corrupt_out / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["validate", "--model", model_path, "--out", corrupt_out] + PAIR_FLAGS)
    assert res.returncode == 4 and "stored w disagrees" in res.stderr


@pytest.mark.parametrize("w", [[math.nan, 0.0], None, [0.0, 0.0, 0.0]], ids=["nan", "null", "length-3"])
def test_exit_code_4_on_a_stored_w_that_is_not_a_parameter(planned_run, tmp_path, w):
    """A stored w that is NaN, missing or of the wrong length disagrees with
    the re-derived one; none of them is a traceback or a silent pass."""
    model_path, out, _, _ = planned_run
    doc = json.loads((out / "plan.json").read_text())
    doc["agents"]["2"]["w"][0] = w
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["validate", "--model", model_path, "--out", tmp_path] + PAIR_FLAGS)
    assert res.returncode == 4
    assert res.stderr.splitlines()[-1] == (
        "error: agent 2, step 0: stored w disagrees with the re-derived value"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--substeps", "0"], "--substeps must be an integer >= 1"),
        (["--substeps", "-3"], "--substeps must be an integer >= 1"),
        (["--integ-tol", "nan"], "--integ-tol must be a finite number > 0"),
        (["--integ-tol", "-1"], "--integ-tol must be a finite number > 0"),
        (["--integ-tol", "0"], "--integ-tol must be a finite number > 0"),
    ],
    ids=["substeps-0", "substeps-negative", "integ-tol-nan", "integ-tol-negative", "integ-tol-0"],
)
def test_exit_code_1_on_out_of_range_integrator_flags(tmp_path, flags, message):
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out] + PAIR_FLAGS + flags)
    assert res.returncode == 1 and "error:" in res.stderr and message in res.stderr
    assert "Traceback" not in res.stderr
    assert not (out / "plan.json").exists()


def test_a_malformed_flag_names_itself(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out", "--substeps", "x"])
    assert res.returncode == 1
    assert "error: argument --substeps: invalid int value: 'x'" in res.stderr


COMMANDS = ("abstract", "plan", "validate", "render", "chain")
FILES = ["--model", "m.json", "--out", "out"]


class EveryCommand(str):
    """Equal to every command name: build_parser gives each command its flags."""

    def __ne__(self, other):
        return False


def parse(parser, argv):
    """What parsing argv prints and ends in: (exit code or the parsed
    flags, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["-x"], ["bogus", "plan"],
    *([command, "--help"] for command in COMMANDS),
    *([command, "--bogus", "1"] + FILES for command in COMMANDS),
    *([command, "--steps", "x"] + FILES for command in COMMANDS),
    *([command] + FILES + ["--lambda", "1=0.35"] for command in COMMANDS),
    ["plan"], ["plan", "--strategy", "fastest"] + FILES, ["abstract", "--seed", "1.5"] + FILES,
    ["validate", "--seed", "1"] + FILES, ["plan"] + FILES + ["--integ-tol", "1e-9", "--cap", "7"],
], ids=lambda argv: " ".join(argv) or "none")
def test_the_parser_of_the_command_that_runs_reads_as_the_full_parser(argv):
    """main gives only the command named by argv's first word its flags;
    help, usage, errors and parsed flags are byte for byte those of the
    parser that gives every command its flags."""
    word = next((a for a in argv if a[:1] != "-"), None)
    assert parse(cli.build_parser(word), argv) == parse(cli.build_parser(EveryCommand()), argv)


def test_the_parser_gives_only_the_named_command_its_flags():
    result, _, err = parse(cli.build_parser("plan"), ["abstract"] + FILES)
    assert result == 1 and "unrecognized arguments: --model m.json --out out" in err
    assert parse(cli.build_parser("abstract"), ["abstract"] + FILES)[0]["func"] is cli.cmd_abstract


def test_model_hash_is_the_sha256_of_the_model_file():
    rng = np.random.default_rng(11)
    with open(FIVE_AGENTS, "rb") as fh:
        blobs = [fh.read(), b""] + [rng.bytes(size) for size in (1, 55, 56, 64, 4097, 100_003)]
    for data in blobs:
        assert cli._model_hash(data) == hashlib.sha256(data).hexdigest()


def audit_failing_five_agents(tmp_path):
    """five_agents with agent 3's field 1/(x_1 - 2): it plans, but the
    references of its plan fail the step-halving audit at 1e-8."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    for agent in doc["agents"]:
        if agent["id"] == 3:
            agent["dynamics"] = {"type": "expression", "exprs": ["1/(x_i[1]-2)", "0"]}
    model_path = write_model(tmp_path / "model.json", doc)
    return ["--model", model_path, "--out", tmp_path, "--steps", "12",
            "--lambda", "1=0.35", "--lambda", "5=0.35"]


# agent 3's singular field runs past its speed bound, and the error says by how much
AGENT_3_AUDIT_ERROR = (
    "error: reference of agent 3 (|f_i|/M_i up to 3.4) audit: step-halving estimate "
    "6.923e-07 exceeds tolerance 1.000e-08; raise substeps\n"
)


def test_a_reference_audit_failure_names_the_agent(tmp_path):
    """validate audits the references at the plan's tolerance.  The plan is
    made at a tolerance its audit passes and then tightened in plan.json."""
    flags = audit_failing_five_agents(tmp_path)
    assert run_cli(["plan"] + flags + ["--integ-tol", "1e-6"]).returncode == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    doc["integ_tol"] = 1e-8
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["validate"] + flags)
    assert res.returncode == 1
    assert res.stderr.endswith(AGENT_3_AUDIT_ERROR)
    assert not (tmp_path / "validation.json").exists()


def test_plan_audits_its_own_transitions_before_writing(tmp_path):
    """plan fails on the audit that validate would fail, with its message,
    and writes no plan.json."""
    res = run_cli(["plan"] + audit_failing_five_agents(tmp_path))
    assert res.returncode == 1
    assert res.stderr.endswith(AGENT_3_AUDIT_ERROR)
    assert not (tmp_path / "plan.json").exists()


MISSING = object()


@pytest.mark.parametrize(
    "key, value, flags, message",
    [
        ("substeps", "x", [], "plan.json substeps must be an integer >= 1"),
        ("substeps", 0, [], "plan.json substeps must be an integer >= 1"),
        ("substeps", 2.5, [], "plan.json substeps must be an integer >= 1"),
        ("integ_tol", "1e-8", [], "plan.json integ_tol must be a finite number > 0"),
        ("integ_tol", -1.0, [], "plan.json integ_tol must be a finite number > 0"),
        # without the key the error is the plan's, and the flag is not read
        ("substeps", MISSING, ["--substeps", "0"],
         "plan.json substeps must be an integer >= 1, got None"),
        ("integ_tol", MISSING, ["--integ-tol", "nan"],
         "plan.json integ_tol must be a finite number > 0, got None"),
    ],
    ids=["substeps-string", "substeps-0", "substeps-fraction", "integ-tol-string",
         "integ-tol-negative", "substeps-missing-flag-0", "integ-tol-missing-flag-nan"],
)
def test_exit_code_1_on_out_of_range_integrator_settings_in_the_plan(
    planned_run, tmp_path, key, value, flags, message
):
    model_path, out, _, _ = planned_run
    doc = json.loads((out / "plan.json").read_text())
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["validate", "--model", model_path, "--out", tmp_path] + PAIR_FLAGS + flags)
    assert res.returncode == 1 and f"error: {message}" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "validation.json").exists()


def test_validate_integrates_with_the_plans_settings(tmp_path):
    """A plan made at 10 substeps validates with or without the flag, and
    the trajectory is the same either way."""
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    plan = run_cli(["plan", "--model", model_path, "--out", out, "--substeps", "10"] + PAIR_FLAGS)
    assert plan.returncode == 0, plan.stderr
    trajectories = []
    for flags in ([], ["--substeps", "10"]):
        res = run_cli(["validate", "--model", model_path, "--out", out] + PAIR_FLAGS + flags)
        assert res.returncode == 0, res.stderr
        trajectories.append((out / "trajectory.csv").read_bytes())
    assert trajectories[0] == trajectories[1]


def test_an_expression_error_names_the_agent(tmp_path):
    """sqrt of a negative value in agent 3's field ends in one error line
    that names the agent and one offending value, not the whole array."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    for agent in doc["agents"]:
        if agent["id"] == 3:
            agent["dynamics"] = {
                "type": "expression", "exprs": ["sqrt(x_i[1] - (2.0) + 0.05) - 0.2", "0"],
            }
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out", "--steps", "12",
                   "--lambda", "1=0.35", "--lambda", "5=0.35"])
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: agent 3: sqrt of negative value -")
    assert "[" not in res.stderr


def test_abstract_names_the_agent_of_an_expression_error(tmp_path):
    """The bounds sampler of abstract names the agent too."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    for agent in doc["agents"]:
        if agent["id"] == 3:
            agent["dynamics"] = {
                "type": "expression", "exprs": ["sqrt(x_i[1] - (2.0) + 0.05) - 0.2", "0"],
            }
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["abstract", "--model", model_path, "--out", tmp_path / "out", "--steps", "12",
                   "--lambda", "1=0.35", "--lambda", "5=0.35"])
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: agent 3: sqrt of negative value -")


@pytest.mark.parametrize("text", [
    "-" * 3000 + "x_i[1]",
    "(" * 300 + "x_i[1]" + ")" * 300,
    " + ".join(["x_i[1]"] * 5000),
    "x_i[1e400]",
], ids=["unary-minuses", "parentheses", "long-sum", "overflowing-index"])
def test_a_too_deep_or_overflowing_expression_is_a_model_error(tmp_path, text):
    """Expressions that once ended abstract in a traceback (RecursionError
    while parsing or evaluating, OverflowError on the index) end in one
    error line that names the agent, and nothing is written."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    for agent in doc["agents"]:
        if agent["id"] == 3:
            agent["dynamics"] = {"type": "expression", "exprs": [text, "0"]}
    model_path = write_model(tmp_path / "model.json", doc)
    out = tmp_path / "out"
    res = run_cli(["abstract", "--model", model_path, "--out", out, "--steps", "12",
                   "--lambda", "1=0.35", "--lambda", "5=0.35"])
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: agent 3: "), res.stderr
    assert not out.exists() or not any(out.iterdir())


def test_an_error_ahead_of_its_agents_turn_leaves_the_verdict_alone(tmp_path):
    """Agent 4's field fails on every state and agent 2 can never claim its
    first goal.  Agent 4 advances in lockstep with agent 2, but the cascade
    never reaches agent 4's turn, so plan ends unsatisfiable, as it does
    when one agent is searched at a time."""
    with open(FIVE_AGENTS) as fh:
        doc = json.load(fh)
    for agent in doc["agents"]:
        if agent["id"] == 4:
            agent["dynamics"] = {
                "type": "expression", "exprs": ["sqrt(-1 - x_i[1]*x_i[1]) + 0*x_j1[1]", "0"],
            }
    doc["spec"]["2"]["goals"][0]["box"] = [[50, 50], [51, 51]]
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out", "--steps", "12",
                   "--lambda", "1=0.35", "--lambda", "5=0.35"])
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == (
        "error: cascade synthesis failed (agent 2: goal 1 was never claimable inside its "
        "window; agent 3: every tried path starves a downstream agent)"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--margin", "nan"], "margin must be finite, got nan"),
        (["--margin", "nan", "--steps", "5"], "margin must be finite, got nan"),
        (["--margin", "inf", "--steps", "5"], "margin must be finite, got inf"),
        (["--budget", "0"], "--budget must be an integer >= 1, got 0"),
        (["--budget", "-1"], "--budget must be an integer >= 1, got -1"),
    ],
    ids=["margin-nan", "margin-nan-steps", "margin-inf-steps", "budget-0", "budget-negative"],
)
def test_exit_code_1_on_out_of_range_margin_or_budget(tmp_path, flags, message):
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out,
                   "--lambda", "1=0.55", "--lambda", "2=0.55"] + flags)
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"error: {message}"]
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_exit_code_1_on_an_out_of_range_cap(tmp_path, cap):
    """A usage error, not an unsatisfiable search."""
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out, "--strategy", "product",
                   f"--cap={cap}"] + PAIR_FLAGS)
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"error: --cap must be an integer >= 1, got {cap}"]
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["--samples", "0"], "--samples must be an integer from 1 to 1000000, got 0"),
        (["--samples", "1000001"], "--samples must be an integer from 1 to 1000000, got 1000001"),
        (["--samples", "100000000000"],
         "--samples must be an integer from 1 to 1000000, got 100000000000"),
    ],
    ids=["seed-negative", "samples-0", "samples-past-max", "samples-huge"],
)
def test_exit_code_1_on_out_of_range_seed_or_samples(tmp_path, flags, message):
    """abstract checks its own flags before it writes anything."""
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    res = run_cli(["abstract", "--model", model_path, "--out", out] + PAIR_FLAGS + flags)
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_a_command_rejects_a_flag_it_does_not_read(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    res = run_cli(["validate", "--model", model_path, "--out", tmp_path / "out", "--seed", "1"])
    assert res.returncode == 1
    assert "error: unrecognized arguments: --seed 1" in res.stderr


def follower_first_doc():
    """The pair with ids swapped: follower 1 reads leader 2's cells, so its
    configurations need an agent that comes later in id order."""
    doc = pair_doc()
    leader, follower = doc["agents"]
    leader["id"], follower["id"] = 2, 1
    follower["neighbors"] = [2]
    follower["dynamics"]["weights"] = {"2": 1.0}
    doc["agents"] = [follower, leader]
    doc["spec"] = {"1": doc["spec"]["2"], "2": doc["spec"]["1"]}
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda a: a["2"].update(cells=a["2"]["cells"][:-2]), "agent 2: plan lists"),
        (lambda a: a["1"].update(w=a["1"]["w"][:-1]), "agent 1: plan lists"),
        (lambda a: a.pop("2"), "agent 2: missing from the plan"),
        (lambda a: a["1"].update(targets=a["1"]["targets"][:-1]), "agent 1: plan lists"),
        (lambda a: a["2"]["cells"].__setitem__(1, [3]), "agent 2: cells lists [3], not a cell"),
        (lambda a: a["1"]["reachable"].append([3, 5, 7]),
         "agent 1: reachable lists [3, 5, 7], not a cell of dimension 2"),
        (lambda a: a["2"]["satisfying"].insert(0, [3]), "agent 2: satisfying lists [3], not a"),
    ],
    ids=["short-neighbor-cells", "short-w", "missing-agent", "short-targets", "cell-of-length-1",
         "reachable-cell-of-length-3", "satisfying-cell-of-length-1"],
)
def test_exit_code_4_on_short_plan_lists(tmp_path, mutate, message):
    """validate and render both refuse the plan with one error line."""
    model_path = write_model(tmp_path / "model.json", follower_first_doc())
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "plan.json").read_text())
    mutate(doc["agents"])
    (out / "plan.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        res = run_cli([command, "--model", model_path, "--out", out] + PAIR_FLAGS)
        assert res.returncode == 4 and "error:" in res.stderr and message in res.stderr
        assert "Traceback" not in res.stderr
    assert sorted(os.listdir(out)) == ["discretization.json", "plan.json", "synth_log.json"]


@pytest.fixture(scope="module")
def five_agents_run(tmp_path_factory):
    """The output directory of a planned and validated five_agents run
    and the flags it was run with."""
    out = tmp_path_factory.mktemp("five") / "out"
    flags = ring_workloads().FIVE_AGENTS_FLAGS
    for command in ("plan", "validate"):
        assert cli.main([command, "--model", FIVE_AGENTS, "--out", str(out)] + flags) == 0
    return out, flags


@pytest.fixture(scope="module")
def five_agents_plan(five_agents_run):
    """A five_agents plan document and the flags it was planned with."""
    out, flags = five_agents_run
    return json.loads((out / "plan.json").read_text()), flags


def _no_masks(dec):
    raise AssertionError(f"the grid cells of agent {dec.agent_id} were masked")


def test_render_with_a_plan_masks_no_grid_cell(five_agents_run, tmp_path, monkeypatch):
    """The figure draws each agent's regions and the boxes plan.json
    names, so render masks no grid cell and writes the benchmark's
    five_agents figure."""
    out, flags = five_agents_run
    for name in ("plan.json", "trajectory.csv"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    monkeypatch.setattr(grid, "_cell_masks", _no_masks)
    assert cli.main(["render", "--model", FIVE_AGENTS, "--out", str(tmp_path)] + flags) == 0
    figure = (tmp_path / "figure.svg").read_bytes()
    assert hashlib.sha256(figure).hexdigest() == FIVE_AGENTS_FIGURE


def test_render_without_a_plan_masks_and_draws_the_grid(tmp_path, monkeypatch):
    """With no plan.json the cells of every grid under the draw limit are
    outlined: the pair model's leader grid, with the bytes it had when
    every grid was masked as it was built."""
    masked = []
    cell_masks = grid._cell_masks

    def count_masks(dec):
        masked.append(dec.agent_id)
        return cell_masks(dec)

    monkeypatch.setattr(grid, "_cell_masks", count_masks)
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    assert cli.main(["render", "--model", str(model_path), "--out", str(out)] + PAIR_FLAGS) == 0
    figure = (out / "figure.svg").read_bytes()
    assert sorted(masked) == [1, 2]
    assert figure.count(b'stroke="#dddddd"') == 952
    assert hashlib.sha256(figure).hexdigest() == PAIR_GRID_FIGURE


@pytest.mark.parametrize(
    "key, agent, value, message",
    [
        ("d_max", "3", 1e-6, "differ from the discretization"),
        ("d_max", "3", 0.5, "differ from the discretization"),
        ("lam", "2", 0.35, "differ from the discretization"),
        ("dt", None, 0.05, "differ from the discretization"),
        ("margin", None, 1.5, "admit no discretization"),
        ("mu", "99->1", 0.5, "admit no discretization: mu names (99, 1)"),
        ("mu", "1->3", 0.01, "admit no discretization: mu names (1, 3)"),
        ("lam", "99", 0.4, "admit no discretization: lambda names unknown agent 99"),
    ],
    ids=["d_max-tiny", "d_max-large", "lam", "dt", "margin", "mu-unknown-agent",
         "mu-off-graph", "lam-unknown-agent"],
)
def test_exit_code_4_on_a_tampered_params_block(
    five_agents_plan, tmp_path, capsys, monkeypatch, key, agent, value, message
):
    """validate and render re-derive the discretization from the recorded
    lam, mu, steps and margin, and refuse a block with any other value
    before a grid is built: a d_max of 1e-6 asks for an 11.4 PiB grid."""
    doc, flags = five_agents_plan
    doc = json.loads(json.dumps(doc))
    if agent is None:
        doc["params"][key] = value
    else:
        doc["params"][key][agent] = value
    (tmp_path / "plan.json").write_text(json.dumps(doc))

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(grid, "build_decomposition", no_grid)
    capsys.readouterr()
    for command in ("validate", "render"):
        assert cli.main([command, "--model", FIVE_AGENTS, "--out", str(tmp_path)] + flags) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: plan.json params ") and message in err
        assert len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["plan.json"]


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda doc: [], 4),
        (lambda doc: doc | {"m": math.inf}, 4),
        (lambda doc: doc | {"agents": [1]}, 4),
        (lambda doc: doc | {"params": doc["params"] | {"lam": [1]}}, 1),
        (lambda doc: doc | {"params": doc["params"] | {"steps": math.inf}}, 1),
        # no flag stands in for a missing block
        (lambda doc: {k: v for k, v in doc.items() if k != "params"}, 1),
    ],
    ids=["list", "m-infinite", "agents-list", "lam-list", "steps-infinite", "params-missing"],
)
def test_a_plan_document_of_the_wrong_shape_is_an_error_line(
    planned_run, tmp_path, capsys, mutate, code
):
    model_path, out, _, _ = planned_run
    doc = mutate(json.loads((out / "plan.json").read_text()))
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        args = [command, "--model", str(model_path), "--out", str(tmp_path)] + PAIR_FLAGS
        assert cli.main(args) == code
        assert capsys.readouterr().err.startswith("error: malformed ")


def test_render_rejects_a_plan_missing_an_agent(planned_run, tmp_path):
    model_path, out, _, _ = planned_run
    doc = json.loads((out / "plan.json").read_text())
    del doc["agents"]["2"]
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["render", "--model", model_path, "--out", tmp_path] + PAIR_FLAGS)
    assert res.returncode == 4 and "error:" in res.stderr
    assert "agent 2: missing from the plan" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "figure.svg").exists()


def test_expression_overflow_is_a_non_finite_endpoint_error(tmp_path):
    """inf - inf in the ring's dynamics ends in the endpoint check, and
    numpy prints no warning on the way there."""
    doc = ring_doc(seed=1)
    doc["agents"][0]["dynamics"]["exprs"][0] = "exp(1000*x_i[1]) - exp(1000*x_i[1])"
    model_path = write_model(tmp_path / "model.json", doc)
    res = run_cli(["plan", "--model", model_path, "--out", tmp_path / "out"]
                  + ring_workloads().RING_FLAGS)
    assert res.returncode == 1, res.stderr
    assert "error: agent 1: the reference endpoint of configuration" in res.stderr
    assert "is not finite" in res.stderr
    assert "overflow encountered" not in res.stderr
    assert "invalid value" not in res.stderr


def test_abstract_reports_a_non_finite_field_without_writing_nan(tmp_path):
    """The same inf - inf field makes abstract warn and write null, so
    bounds.json stays valid JSON."""
    doc = ring_doc(seed=1)
    doc["agents"][0]["dynamics"]["exprs"][0] = "exp(1000*x_i[1]) - exp(1000*x_i[1])"
    model_path = write_model(tmp_path / "model.json", doc)
    out = tmp_path / "out"
    res = run_cli(["abstract", "--model", model_path, "--out", out]
                  + ring_workloads().RING_FLAGS)
    assert res.returncode == 0, res.stderr
    assert "warning: agent 1: sampled |f| is not finite" in res.stderr

    def reject(constant):
        raise AssertionError(f"bounds.json holds {constant}")

    bounds = json.loads((out / "bounds.json").read_text(), parse_constant=reject)
    assert bounds["agents"]["1"]["sup_f"] is None
    assert "agent 1: sampled |f| is not finite" in bounds["violations"]


def test_a_non_finite_artifact_value_is_an_input_error(tmp_path):
    with pytest.raises(HorizonError, match="bad.json was not written") as info:
        cli._write_json(tmp_path, "bad.json", {"margin": math.nan})
    assert info.value.exit_code == 1
    assert not (tmp_path / "bad.json").exists()


def test_hash_mismatch_is_an_input_error(planned_run, tmp_path):
    model_path, out, _, _ = planned_run
    edited = tmp_path / "edited.json"
    edited.write_text(model_path.read_text() + "\n")
    mism_out = tmp_path / "mism"
    mism_out.mkdir()
    (mism_out / "plan.json").write_text((out / "plan.json").read_text())
    res = run_cli(["validate", "--model", edited, "--out", mism_out] + PAIR_FLAGS)
    assert res.returncode == 1 and "hash mismatch" in res.stderr


@pytest.mark.parametrize("model_hash", ["deleted", "null"])
def test_a_plan_without_a_model_hash_matches_no_model_file(
    five_agents_plan, tmp_path, capsys, model_hash
):
    """A five_agents plan.json whose model_hash is deleted or null is not
    validated or rendered against a model with every goal box moved by
    +50: both exit 1 with the hash-mismatch error and write nothing."""
    doc, flags = five_agents_plan
    doc = json.loads(json.dumps(doc))
    if model_hash == "deleted":
        del doc["model_hash"]
    else:
        doc["model_hash"] = None
    with open(FIVE_AGENTS) as fh:
        moved = json.load(fh)
    for spec in moved["spec"].values():
        for goal in spec["goals"]:
            goal["box"] = [[v + 50 for v in corner] for corner in goal["box"]]
    model_path = write_model(tmp_path / "model.json", moved)
    out = tmp_path / "out"
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(doc))
    for command in ("validate", "render"):
        assert cli.main([command, "--model", str(model_path), "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err == (
            "error: plan.json was synthesized from a different model file (hash mismatch)\n"
        )
    assert sorted(os.listdir(out)) == ["plan.json"]


@pytest.mark.parametrize("validation, code, message", [
    ("failed", 4, "records a failed validation"),
    ('{"passed": tru', 1, "cannot parse"),
    ('{"passed": "yes"}', 1, "not a boolean"),
    (None, 1, "cannot read"),
], ids=["failed", "truncated", "not-a-boolean", "a-directory"])
def test_chain_refuses_a_failed_or_unreadable_validation(
    validation, code, message, planned_run, tmp_path, capsys
):
    """chain hands a window on only from a run whose validation.json, if
    the directory holds one, passed.  A failed one is a ValidationError, an
    unreadable one a ModelError, and neither writes next_model.json."""
    model_path, out, _, _ = planned_run
    (tmp_path / "trajectory.csv").write_bytes((out / "trajectory.csv").read_bytes())
    if validation is None:
        (tmp_path / "validation.json").mkdir()
    else:
        if validation == "failed":
            doc = json.loads((out / "validation.json").read_text())
            validation = json.dumps({**doc, "passed": False})
        (tmp_path / "validation.json").write_text(validation)
    assert cli.main(["chain", "--model", str(model_path), "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "next_model.json").exists()


@pytest.mark.parametrize("edit, code, message", [
    ("hash", 1, "hash mismatch"),
    ("times", 4, "not the closed-loop nodes of plan.json"),
])
def test_chain_checks_the_trajectory_against_plan_json(
    edit, code, message, planned_run, tmp_path, capsys
):
    """With plan.json in --out, chain loads it with its hash check and
    refuses a trajectory whose times are not the plan's closed-loop nodes:
    a plan of another model file exits 1, times past 0 shifted exit 4, and
    neither writes next_model.json."""
    model_path, out, _, _ = planned_run
    for name in ("plan.json", "trajectory.csv", "validation.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    if edit == "hash":
        doc = json.loads((out / "plan.json").read_text())
        doc["model_hash"] = hashlib.sha256(b"another model").hexdigest()
        (tmp_path / "plan.json").write_text(json.dumps(doc))
    else:
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        rows = [f"{float(t) + 1e-3 if float(t) else 0.0!r},{rest}"
                for t, rest in (row.split(",", 1) for row in rows)]
        (tmp_path / "trajectory.csv").write_text("\n".join([header] + rows) + "\n")
    assert cli.main(["chain", "--model", str(model_path), "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "next_model.json").exists()


def test_chain_requires_a_trajectory(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    res = run_cli(["chain", "--model", model_path, "--out", tmp_path / "empty"])
    assert res.returncode == 1 and "error:" in res.stderr


def test_chain_rejects_unbalanced_trajectory_rows(tmp_path):
    model_path = write_model(tmp_path / "model.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory.csv").write_text(
        "t,agent,x1,x2,v1,v2\n"
        "0.0,1,0.0,0.0,0.0,0.0\n"
        "0.0,2,1.0,1.0,0.0,0.0\n"
        "0.5,1,0.2,0.1,0.0,0.0\n"
    )
    res = run_cli(["chain", "--model", model_path, "--out", out])
    assert res.returncode == 1
    assert "error:" in res.stderr and "unbalanced" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (out / "next_model.json").exists()


def test_the_package_runs_as_a_module():
    res = subprocess.run(
        [sys.executable, "-m", "horizon_abs", "--help"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: horizon-abs")


def test_validate_leaves_numpy_ma_unloaded(planned_run, tmp_path):
    """The closed loop dedupes its stage times without np.unique, whose
    no-index path imports numpy.ma; validate has no other use for it."""
    model_path, out, _, _ = planned_run
    run_out = tmp_path / "out"
    run_out.mkdir()
    (run_out / "plan.json").write_bytes((out / "plan.json").read_bytes())
    argv = ["validate", "--model", str(model_path), "--out", str(run_out)] + PAIR_FLAGS
    code = (
        "import sys\n"
        "from horizon_abs.cli import main\n"
        f"status = main({argv!r})\n"
        "print(status, 'numpy.ma' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"
    assert (run_out / "trajectory.csv").read_bytes() == (out / "trajectory.csv").read_bytes()


def test_the_package_import_loads_only_the_errors():
    """Every public name resolves on first access, and dir() and the star
    import list it, though importing the package loads only errors.  The
    cli module's own imports leave hashlib unloaded."""
    code = (
        "import sys\n"
        "import horizon_abs\n"
        "print(sorted(m for m in sys.modules if m.startswith('horizon_abs.')))\n"
        "names = {name: getattr(horizon_abs, name) for name in horizon_abs.__all__}\n"
        "print(all(callable(v) for v in names.values()),\n"
        "      set(horizon_abs.__all__) <= set(dir(horizon_abs)))\n"
        "star = {}\n"
        "exec('from horizon_abs import *', star)\n"
        "print(all(star[name] is value for name, value in names.items()))\n"
        "print(hasattr(horizon_abs, 'no_such_name'))\n"
        "import horizon_abs.cli\n"
        "print('hashlib' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["['horizon_abs.errors']", "True True", "True", "False",
                                       "False"]


# modules no command loads: the records are plain classes, and the pair
# model's dynamics are built in
NEVER_LOADED = ["dataclasses", "horizon_abs.expr"]


@pytest.mark.parametrize("command, unloaded", [
    ("abstract", ["horizon_abs.planner", "horizon_abs.sim", "horizon_abs.render"]),
    ("plan", ["horizon_abs.sim", "horizon_abs.render", "_hashlib"]),
    ("chain", ["horizon_abs.planner", "horizon_abs.render",
               "horizon_abs.abstraction", "horizon_abs.controller", "_hashlib"]),
    ("validate", ["horizon_abs.render", "_hashlib"]),
    ("render", ["horizon_abs.planner", "horizon_abs.abstraction", "horizon_abs.controller",
                "_hashlib"]),
])
def test_a_command_leaves_the_modules_it_does_not_run_unloaded(
    command, unloaded, planned_run, tmp_path
):
    """Each command imports the modules past the shared set where it
    starts.  plan, validate, render and chain hash the model file with
    the interpreter's own SHA-256, so none of them loads OpenSSL
    (_hashlib); abstract's sampler (numpy.random) loads it anyway.
    render reads plan.json through plandoc, without the search, and
    builds its grids without an Abstraction; neither it nor chain
    integrates."""
    model_path, out, _, _ = planned_run
    for name in ("plan.json", "trajectory.csv"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    argv = [command, "--model", str(model_path), "--out", str(tmp_path)] + PAIR_FLAGS
    code = (
        "import sys\n"
        "from horizon_abs.cli import main\n"
        f"status = main({argv!r})\n"
        f"print(status, [m for m in {unloaded + NEVER_LOADED!r} if m in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("doc, flags", [
    (heterogeneous_doc, ["--steps", "4"]),
    (lambda: ring_doc(1), ring_workloads().RING_FLAGS),
], ids=["heterogeneous", "ring"])
def test_expression_dynamics_run_through_the_expression_module(doc, flags, tmp_path):
    """A model with an expression agent loads expr when it is parsed."""
    model_path = write_model(tmp_path / "model.json", doc())
    argv = ["abstract", "--model", str(model_path), "--out", str(tmp_path / "out")] + flags
    code = (
        "import sys\n"
        "from horizon_abs.cli import main\n"
        f"status = main({argv!r})\n"
        "print(status, 'horizon_abs.expr' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 True"


def test_main_leaves_the_collector_alone_while_the_process_lives(tmp_path, monkeypatch):
    """main registers gc.freeze to run at exit, once however often it
    runs: in the process that calls it, the collector stays on and
    nothing is frozen."""
    exit_funcs = []

    def unregister(func):
        exit_funcs[:] = [f for f in exit_funcs if f != func]

    monkeypatch.setattr(atexit, "register", exit_funcs.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    argv = ["abstract", "--model", str(write_model(tmp_path / "model.json")),
            "--out", str(tmp_path / "out"), "--samples", "8"] + PAIR_FLAGS
    for _ in range(2):
        assert cli.main(argv) == 0
    assert exit_funcs == [gc.freeze]
    assert gc.isenabled() and gc.get_freeze_count() == 0


# main run as the console script runs it; then the types of the cyclic
# garbage that is a file or has a finalizer
GARBAGE_CHECK = (
    "import gc, io, sys\n"
    "from horizon_abs.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "gc.set_debug(gc.DEBUG_SAVEALL)\n"
    "gc.collect()\n"
    "print(status, sorted({type(o).__name__ for o in gc.garbage\n"
    "                      if isinstance(o, io.IOBase) or hasattr(type(o), '__del__')}))\n"
)


def test_a_command_leaves_no_garbage_that_needs_finalizing(tmp_path):
    """Objects alive at exit are frozen and skip finalization's
    collections.  Each command on five_agents, run as the benchmark runs
    it, leaves no cyclic garbage that is a file or defines __del__, so no
    file goes unclosed and no finalizer unrun."""
    flags = ring_workloads().FIVE_AGENTS_FLAGS
    for command, extra in (("abstract", ["--seed", "1"]), ("plan", ["--strategy", "cascade"]),
                           ("validate", []), ("render", []), ("chain", [])):
        argv = [command, "--model", FIVE_AGENTS, "--out", str(tmp_path)] + flags + extra
        res = subprocess.run([sys.executable, "-c", GARBAGE_CHECK] + argv,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 []", (command, res.stdout)
