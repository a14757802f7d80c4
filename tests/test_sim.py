"""Closed-loop simulation, validation reports, and trajectory I/O."""

import copy
import re

import numpy as np
import pytest

from horizon_abs import abstraction as abstraction_mod
from horizon_abs import controller, grid, integrate, planner, sim
from horizon_abs.errors import IntegrationError, ModelError

from conftest import (
    heterogeneous_doc,
    make_model,
    make_stack,
    per_agent_closed_loop,
    single_doc,
)


def decoupled_doc():
    """Two drifting agents with no coupling and one box goal each."""
    agent = {
        "dim": 2,
        "neighbors": [],
        "dynamics": {"type": "zero"},
        "v_max": 1.0,
        "M": 0.5,
        "L1": 0.0,
        "L2": 0.0,
    }
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            dict(agent, id=1, x0=[0.0, 0.0]),
            dict(agent, id=2, x0=[1.0, 1.0]),
        ],
        "spec": {
            "1": {
                "goals": [
                    {"box": [[0.05, 0.05], [0.35, 0.35]], "window": [0.5, 1.0], "relative": False}
                ]
            },
            "2": {
                "goals": [
                    {"box": [[0.75, 0.75], [0.95, 0.95]], "window": [0.5, 1.0], "relative": False}
                ]
            },
        },
    }


def plan_and_run(doc, lam):
    model, params, ab = make_stack(doc, lam=lam)
    plan = planner.cascade_synthesize(model, ab)
    schedule = planner.extract_controls(model, ab, plan)
    traj = sim.simulate_closed_loop(model, ab, schedule, plan.m)
    return model, ab, plan, schedule, traj


@pytest.fixture(scope="module")
def pair_run(pair_stack):
    model, params, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    schedule = planner.extract_controls(model, ab, plan)
    traj = sim.simulate_closed_loop(model, ab, schedule, plan.m)
    return model, ab, plan, schedule, traj


def test_single_agent_follows_its_plan():
    doc = single_doc()
    doc["spec"] = {
        "1": {
            "goals": [
                {"box": [[0.05, 0.05], [0.35, 0.35]], "window": [0.5, 1.0], "relative": False}
            ]
        }
    }
    model, ab, plan, schedule, traj = plan_and_run(doc, lam={1: 0.55})
    report = sim.validate_plan(model, ab, plan, traj)
    assert report.passed and report.min_margin > 0
    dec = ab.decs[1]
    for k in range(plan.m + 1):
        assert grid.locate(dec, traj.state_at_step(0, k)) == plan.cells[1][k]


def test_decoupled_network_equals_independent_runs():
    doc = decoupled_doc()
    model, ab, plan, schedule, traj = plan_and_run(doc, lam={1: 0.55, 2: 0.55})
    assert sim.validate_plan(model, ab, plan, traj).passed
    for a, i in enumerate(model.agent_ids):
        solo_doc = {
            "horizon": doc["horizon"],
            "tau": doc["tau"],
            "agents": [doc["agents"][a]],
            "spec": {str(i): doc["spec"][str(i)]},
        }
        _, _, solo_plan, _, solo_traj = plan_and_run(solo_doc, lam={i: 0.55})
        assert solo_plan.cells[i] == plan.cells[i]
        assert np.array_equal(solo_traj.states[:, 0], traj.states[:, a])
        assert np.array_equal(solo_traj.inputs[:, 0], traj.inputs[:, a])


def heterogeneous_schedule(ab, m, rng):
    """Per step, each agent's own cell is one of two initiating cells near
    its start (so configurations repeat), its neighbors' cells are theirs,
    and w is a random admissible parameter."""
    model = ab.model
    cells = {}
    for agent in model.agents:
        dec = ab.decs[agent.id]
        near = sorted(
            dec.initiating_set,
            key=lambda c: float(np.sum((grid.reference_point(dec, c) - agent.x0) ** 2)),
        )[:2]
        cells[agent.id] = [near[int(rng.integers(2))] for _ in range(m)]
    schedule = {}
    for agent in model.agents:
        steps = []
        for k in range(m):
            config = (cells[agent.id][k],) + tuple(cells[j][k] for j in agent.neighbors)
            w = rng.uniform(-0.5, 0.5, size=2) * agent.v_max
            steps.append(planner.StepControl(config=config, target=None, w=w, point=None))
        schedule[agent.id] = steps
    return schedule


def test_network_field_groups_equal_dynamics_only():
    model = make_model(heterogeneous_doc())
    field = sim.NetworkField(model.agents, sim._neighbor_rows(model))
    groups = sorted(sorted(model.agents[r].id for r in rows) for _, rows, _ in field.groups)
    assert groups == [[1, 10], [2], [3], [4], [5, 9], [6], [7], [8]]


def test_vectorized_closed_loop_matches_the_per_agent_loop():
    """Bit for bit, on every dynamics variant, against the per-agent oracle."""
    model, params, ab = make_stack(heterogeneous_doc(), steps=4, integ_tol=1e-6)
    m = 4
    schedule = heterogeneous_schedule(ab, m, np.random.default_rng(3))
    traj = sim.simulate_closed_loop(model, ab, schedule, m)
    ts, states, inputs = per_agent_closed_loop(model, ab, schedule, m)
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.inputs, inputs)
    assert np.any(inputs != 0)


def test_closed_loop_audit_failure_names_the_interval(pair_run):
    model, ab, plan, schedule, _ = pair_run
    with pytest.raises(IntegrationError, match="closed-loop interval 0 audit"):
        sim.simulate_closed_loop(model, ab, schedule, plan.m, integ_tol=1e-30)


@pytest.fixture(scope="module")
def heterogeneous_case():
    model, params, ab = make_stack(heterogeneous_doc(), steps=4, integ_tol=1e-6)
    m = 4
    return model, ab, heterogeneous_schedule(ab, m, np.random.default_rng(3)), m


def record_closed_loop(monkeypatch, nan_at=None):
    """Record the closed loop's coarse runs as (rhs, y0, dense) and its
    audit estimates; the coarse run of interval ``nan_at`` gets a NaN
    endpoint.  Reference runs and audits are not recorded."""
    runs, audits = [], []
    rk4_dense, check_audit = integrate.rk4_dense, integrate.check_audit

    def dense(rhs, y0, dt, substeps):
        out = rk4_dense(rhs, y0, dt, substeps)
        if "simulate_closed_loop" in rhs.__qualname__:
            if len(runs) == nan_at:
                out.ys[-1, 0, 0] = np.nan
            runs.append((rhs, y0, out))
        return out

    def audit(*args, **kwargs):
        err = check_audit(*args, **kwargs)
        if callable(kwargs.get("what")):
            audits.append(err)
        return err

    monkeypatch.setattr(integrate, "rk4_dense", dense)
    monkeypatch.setattr(integrate, "check_audit", audit)
    return runs, audits


def test_batched_audit_equals_per_interval_audits(heterogeneous_case, monkeypatch):
    """One audit over all intervals gives, bit for bit, the estimates of
    one check_audit per interval on that interval's coarse run."""
    model, ab, schedule, m = heterogeneous_case
    runs, audits = record_closed_loop(monkeypatch)
    sim.simulate_closed_loop(model, ab, schedule, m)
    assert len(runs) == m and len(audits) == 1
    assert audits[0].shape == (m, len(model.agents))
    for k, (rhs, y0, dense) in enumerate(runs):
        alone = integrate.check_audit(
            rhs, y0, ab.params.dt, ab.substeps, ab.integ_tol, coarse=dense.endpoint
        )
        assert np.array_equal(audits[0][k], alone)


def test_closed_loop_makes_one_fine_run_and_one_input_call(heterogeneous_case, monkeypatch):
    model, ab, schedule, m = heterogeneous_case
    calls = []
    network_field = sim.NetworkField.__call__

    def counting(self, S):
        calls.append(S.shape)
        return network_field(self, S)

    monkeypatch.setattr(sim.NetworkField, "__call__", counting)
    sim.simulate_closed_loop(model, ab, schedule, m)
    substeps = ab.substeps
    assert len(calls) == m * (4 * substeps + 1) + 8 * substeps + 1
    assert calls[-1][0] == m * substeps + 1


def test_closed_loop_audit_names_the_lowest_failing_interval(heterogeneous_case, monkeypatch):
    model, ab, schedule, m = heterogeneous_case
    runs, audits = record_closed_loop(monkeypatch)
    sim.simulate_closed_loop(model, ab, schedule, m)
    worst = audits[0].max(axis=1)
    tol = 2e-8
    assert worst[0] <= tol and worst[2] <= tol < worst[1] and tol < worst[3]
    with pytest.raises(IntegrationError, match=re.escape(
        f"closed-loop interval 1 audit: step-halving estimate {worst[1]:.3e} exceeds "
        f"tolerance {tol:.3e}; raise substeps"
    )):
        sim.simulate_closed_loop(model, ab, schedule, m, integ_tol=tol)


def test_non_finite_coarse_endpoint_stops_the_closed_loop(heterogeneous_case, monkeypatch):
    """Interval 2's NaN endpoint fails its audit; interval 3 is never integrated."""
    model, ab, schedule, m = heterogeneous_case
    runs, _ = record_closed_loop(monkeypatch, nan_at=2)
    with pytest.raises(
        IntegrationError, match="^closed-loop interval 2 audit: the integrated endpoint is not finite"
    ):
        sim.simulate_closed_loop(model, ab, schedule, m)
    assert len(runs) == 3


def test_earlier_audit_failure_wins_over_a_later_non_finite_endpoint(
    heterogeneous_case, monkeypatch
):
    model, ab, schedule, m = heterogeneous_case
    runs, _ = record_closed_loop(monkeypatch, nan_at=2)
    with pytest.raises(IntegrationError, match="^closed-loop interval 1 audit: step-halving"):
        sim.simulate_closed_loop(model, ab, schedule, m, integ_tol=2e-8)
    assert len(runs) == 3


def test_reference_audit_failure_names_the_agent(pair_run):
    """Agent 1's references are constant and pass; agent 2's batch fails."""
    model, ab, plan, schedule, _ = pair_run
    strict = abstraction_mod.Abstraction(
        model, ab.params, ab.families, ab.decs, substeps=ab.substeps, integ_tol=1e-30
    )
    with pytest.raises(IntegrationError, match="reference of agent 2 audit"):
        sim.simulate_closed_loop(model, strict, schedule, plan.m, integ_tol=1.0)


def test_trajectory_grid_and_time_axis(pair_run):
    model, ab, plan, schedule, traj = pair_run
    dt = ab.params.dt
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == pytest.approx(plan.m * dt, rel=1e-12)
    assert np.all(np.diff(traj.ts) > 0)
    assert len(traj.ts) == plan.m * traj.substeps + 1
    for k in range(plan.m + 1):
        assert traj.ts[k * traj.substeps] == pytest.approx(k * dt, rel=1e-12)
    finals = traj.final_states()
    for a, i in enumerate(model.agent_ids):
        assert np.array_equal(finals[i], traj.states[-1, a])


def test_closed_loop_obeys_speed_and_input_bounds(pair_run):
    model, ab, plan, schedule, traj = pair_run
    gaps = np.diff(traj.ts)
    for a, i in enumerate(model.agent_ids):
        agent = model.agent(i)
        speeds = np.linalg.norm(np.diff(traj.states[:, a], axis=0), axis=-1)
        assert np.all(speeds <= (agent.M + agent.v_max) * gaps * (1 + 1e-6) + 1e-9)
        input_norms = np.linalg.norm(traj.inputs[:, a], axis=-1)
        assert np.max(input_norms) < agent.v_max  # saturation never engages


def test_realized_steps_match_the_planned_points(pair_run):
    """Each realized step endpoint lands on the planned target point."""
    model, ab, plan, schedule, traj = pair_run
    dt = ab.params.dt
    for a, i in enumerate(model.agent_ids):
        lam = ab.params.lam[i]
        for k in range(plan.m):
            step = schedule[i][k]
            ref = ab.reference_for(i, [step.config])
            predicted = ref.eval(dt)[0] + lam * dt * step.w
            realized = traj.state_at_step(a, k + 1)
            assert np.max(np.abs(realized - predicted)) <= 5e-8
            assert np.max(np.abs(realized - step.point)) <= 5e-8


def test_validation_flags_a_rerouted_plan(pair_run):
    model, ab, plan, schedule, traj = pair_run
    report = sim.validate_plan(model, ab, plan, traj)
    assert report.passed and report.min_margin > 0
    doc = report.to_doc()
    assert doc["passed"] is True and doc["min_margin"] == report.min_margin

    mutated = copy.deepcopy(plan)
    c = mutated.cells[2][2]
    mutated.cells[2][2] = (c[0] + 3, c[1])
    bad = sim.validate_plan(model, ab, mutated, traj)
    assert not bad.passed
    failing = [e for e in bad.entries if not e["ok"]]
    assert failing and failing[0]["agent"] == 2 and failing[0]["step"] == 2
    assert failing[0]["margin"] < 0
    assert "located" in failing[0]


def test_validation_checks_step_zero_by_identity(pair_run):
    model, ab, plan, schedule, traj = pair_run
    entry0 = sim.validate_plan(model, ab, plan, traj).entries[0]
    assert entry0["step"] == 0 and entry0["ok"] and "margin" not in entry0

    mutated = copy.deepcopy(plan)
    c = mutated.cells[1][0]
    mutated.cells[1][0] = (c[0] + 1, c[1])
    bad = sim.validate_plan(model, ab, mutated, traj)
    assert not bad.passed
    assert not bad.entries[0]["ok"]


def test_zero_length_plan_simulates_to_a_point(pair_stack):
    model, params, ab = pair_stack
    schedule = {1: [], 2: []}
    traj = sim.simulate_closed_loop(model, ab, schedule, 0)
    assert traj.states.shape[0] == 1
    assert np.all(traj.inputs == 0)
    for a, i in enumerate(model.agent_ids):
        assert np.array_equal(traj.states[0, a], model.agent(i).x0)


def test_substeps_override(pair_run):
    model, ab, plan, schedule, _ = pair_run
    traj = sim.simulate_closed_loop(model, ab, schedule, plan.m, substeps=50)
    assert traj.substeps == 50
    assert len(traj.ts) == plan.m * 50 + 1
    assert sim.validate_plan(model, ab, plan, traj).passed


def test_open_loop_integrates_declared_inputs():
    model = make_model(single_doc())
    v = np.array([0.6, -0.3])
    traj = sim.simulate_open_loop(model, {1: lambda t: v}, 0.8)
    # zero dynamics: the state moves exactly along the input
    assert np.allclose(traj.states[-1, 0], model.agent(1).x0 + 0.8 * v, atol=1e-12)
    assert np.allclose(traj.inputs[:, 0], v)


def test_open_loop_rejects_oversized_inputs():
    model = make_model(single_doc())
    with pytest.raises(ModelError, match="exceeds v_max"):
        sim.simulate_open_loop(model, {1: lambda t: np.array([2.0, 0.0])}, 0.5)


def test_trajectory_csv_round_trip(pair_run):
    _, _, _, _, traj = pair_run
    text = sim.trajectory_to_csv(traj)
    back = sim.trajectory_from_csv(text)
    assert back.agent_ids == traj.agent_ids
    assert np.array_equal(back.ts, traj.ts)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.inputs, traj.inputs)
    finals = sim.final_states_from_csv(text)
    for a, i in enumerate(traj.agent_ids):
        assert np.array_equal(finals[i], traj.states[-1, a])


def test_csv_rejects_malformed_documents():
    with pytest.raises(ModelError, match="empty trajectory"):
        sim.trajectory_from_csv("")
    with pytest.raises(ModelError, match="malformed trajectory header"):
        sim.trajectory_from_csv("a,b,c\n1,2,3\n")
    good_header = "t,agent,x1,x2,v1,v2\n"
    with pytest.raises(ModelError, match="malformed trajectory row"):
        sim.trajectory_from_csv(good_header + "0.0,1,0.0,oops,0.0,0.0\n")
    with pytest.raises(ModelError, match="unbalanced"):
        sim.trajectory_from_csv(
            good_header
            + "0.0,1,0.0,0.0,0.0,0.0\n"
            + "0.0,2,0.0,0.0,0.0,0.0\n"
            + "0.1,1,0.1,0.0,0.0,0.0\n"
        )
    with pytest.raises(ModelError, match="empty trajectory"):
        sim.final_states_from_csv("")
