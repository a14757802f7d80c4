"""End-to-end command line runs: artifacts, determinism, exit codes."""

import hashlib
import json
import math
import os

import pytest

from horizon_abs import cli
from horizon_abs.errors import HorizonError

from conftest import pair_doc, ring_doc, ring_workloads, run_cli

PAIR_FLAGS = ["--steps", "5", "--lambda", "1=0.55", "--lambda", "2=0.55"]


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

    bare_out = tmp_path / "bare"
    res = run_cli(["render", "--model", model_path, "--out", bare_out] + PAIR_FLAGS)
    assert res.returncode == 0
    bare = (bare_out / "figure.svg").read_text()
    assert bare.startswith("<svg") and "<polyline" not in bare


def test_chain_patches_initial_states(planned_run):
    from horizon_abs import sim

    model_path, out, _, _ = planned_run
    res = run_cli(["chain", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0, res.stderr
    assert "next_model.json" in res.stdout
    finals = sim.final_states_from_csv((out / "trajectory.csv").read_text())
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
    ],
    ids=["short-neighbor-cells", "short-w", "missing-agent"],
)
def test_exit_code_4_on_short_plan_lists(tmp_path, mutate, message):
    model_path = write_model(tmp_path / "model.json", follower_first_doc())
    out = tmp_path / "out"
    res = run_cli(["plan", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "plan.json").read_text())
    mutate(doc["agents"])
    (out / "plan.json").write_text(json.dumps(doc))
    res = run_cli(["validate", "--model", model_path, "--out", out] + PAIR_FLAGS)
    assert res.returncode == 4 and "error:" in res.stderr and message in res.stderr
    assert "Traceback" not in res.stderr


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
