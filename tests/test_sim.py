"""Closed-loop simulation, validation reports, and trajectory I/O."""

import copy
import json
import math
import re

import numpy as np
import pytest

import oracles
from horizon_abs import abstraction as abstraction_mod
from horizon_abs import controller, grid, integrate, planner, sim
from horizon_abs import model as model_mod
from horizon_abs.errors import IntegrationError, ModelError

from conftest import (
    FIVE_AGENTS,
    heterogeneous_doc,
    make_model,
    make_stack,
    per_agent_closed_loop,
    ring_doc,
    ring_stack,
    ring_workloads,
    scalar_trajectory_to_csv,
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
        # four cells tie around x0; the cell breaks the tie
        near = sorted(
            dec.initiating_set,
            key=lambda c: (float(np.sum((grid.reference_point(dec, c) - agent.x0) ** 2)), c),
        )[:2]
        cells[agent.id] = [near[int(rng.integers(2))] for _ in range(m)]
    schedule = {}
    for agent in model.agents:
        steps = []
        for k in range(m):
            config = (cells[agent.id][k],) + tuple(cells[j][k] for j in agent.neighbors)
            w = rng.uniform(-0.5, 0.5, size=2) * agent.v_max
            steps.append(abstraction_mod.Action(
                agent_id=agent.id, config=config, target=None, point=None, w=w
            ))
        schedule[agent.id] = steps
    return schedule


def test_network_field_groups_equal_dynamics_only():
    """In model order, equal dynamics split into runs of consecutive rows;
    laid out in model.group_order, each group is one run."""
    model = make_model(heterogeneous_doc())
    N = len(model.agents)
    in_model_order = model_mod.NetworkField(model.agents, sim._neighbor_rows(model.agents))
    assert [[a.id for a in model.agents[rows]] for _, rows, _, _ in in_model_order.groups] == [
        [1], [2], [3], [4], [5], [6], [7], [8], [9], [10]
    ]
    agents = [model.agents[r] for r in model_mod.group_order(model.agents)]
    assert [agent.id for agent in agents] == [1, 10, 2, 3, 4, 5, 9, 6, 7, 8]
    field = model_mod.NetworkField(agents, sim._neighbor_rows(agents))
    groups = [[agent.id for agent in agents[rows]] for _, rows, _, _ in field.groups]
    assert groups == [[1, 10], [2], [3], [4], [5, 9], [6], [7], [8]]
    assert sum(rows.stop - rows.start for _, rows, _, _ in field.groups) == N
    # one index array per neighbor slot, naming the neighbors' rows of the state
    for dynamics, rows, slots, ids in field.groups:
        assert type(rows) is slice
        assert ids == [agent.id for agent in agents[rows]]
        assert [list(idx) for idx in slots] == [
            [[a.id for a in agents].index(agent.neighbors[k]) for agent in agents[rows]]
            for k in range(len(agents[rows][0].neighbors))
        ]


class TakeCounted(np.ndarray):
    """A state whose ndarray.take calls are counted in ``takes[-1]``."""

    takes = []

    def take(self, *args, **kwargs):
        TakeCounted.takes[-1] += 1
        return np.asarray(self).take(*args, **kwargs)


def group_key(agent):
    return (agent.dynamics.variant, agent.dynamics.key(), len(agent.neighbors))


@pytest.mark.parametrize("case", ["five_agents", "heterogeneous"])
def test_plan_and_validate_read_every_group_as_one_run(case, tmp_path, monkeypatch):
    """Every model.NetworkField that an RK4 stage of in-process plan and
    validate calls, reference or closed loop, reads its rows as maximal
    runs (slices that tile the rows, neighbors of unequal dynamics).  The
    closed loop lays its rows out in group order, so each dynamics group
    is one run; its stage takes each neighbor slot of the state with one
    ndarray.take and reads its own rows as views."""
    from horizon_abs import cli

    if case == "five_agents":
        flags = ["--model", FIVE_AGENTS, "--steps", "12", "--lambda", "1=0.35",
                 "--lambda", "5=0.35"]
    else:
        # agent 1's goal is claimable only at step 1, so the plan makes a step
        doc = heterogeneous_doc()
        goal = {"box": [[-1.0, -1.0], [1.0, 1.0]], "window": [0.2, 0.3], "relative": False}
        doc["spec"] = {"1": {"goals": [goal]}}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        flags = ["--model", str(tmp_path / "model.json"), "--steps", "4"]
    running, fields, stages = [], [], []
    run, call = integrate._run, model_mod.NetworkField.__call__

    def marked(*args, **kwargs):
        running.append(True)
        try:
            return run(*args, **kwargs)
        finally:
            running.pop()

    def counted(self, S, out=None):
        if not running:
            return call(self, S, out)
        fields.append(self)
        if self.frozen:
            return call(self, S, out)
        TakeCounted.takes.append(0)
        F = call(self, S.view(TakeCounted), out)
        stages.append((TakeCounted.takes.pop(), sum(len(g[2]) for g in self.groups)))
        return F

    monkeypatch.setattr(integrate, "_run", marked)
    monkeypatch.setattr(model_mod.NetworkField, "__call__", counted)
    for command in ("plan", "validate"):
        assert cli.main([command, "--out", str(tmp_path / "out")] + flags) == 0
    assert json.loads((tmp_path / "out" / "plan.json").read_text())["m"] >= 1
    assert any(field.frozen for field in fields) and not all(field.frozen for field in fields)
    for field in fields:
        runs = [rows for _, rows, _, _ in field.groups]
        assert all(type(rows) is slice for rows in runs)
        assert [rows.start for rows in runs] == [0] + [rows.stop for rows in runs[:-1]]
        assert runs[-1].stop == len(field.agents)
        keys = [group_key(field.agents[rows.start]) for rows in runs]
        assert all(a != b for a, b in zip(keys, keys[1:]))
        if not field.frozen:
            assert len(keys) == len(set(keys))
    assert stages and all(taken == slots for taken, slots in stages)
    assert stages[0][1] > 0
    assert any(field.frozen and len(field.groups) > 1 for field in fields)


@pytest.mark.parametrize("doc", [None, heterogeneous_doc], ids=["five_agents", "heterogeneous"])
def test_network_field_in_place_has_each_rows_one_row_bits(doc):
    """Written into a strided slot of a stage block, the field of every
    row has the bits of model.eval_f on that row alone, sign bits
    included: with neighbors gathered from the state or frozen, with
    leading axes, and in model order, where five_agents' consensus rows
    0, 1, 3 and 4 make two runs around the Hill row.  States hold signed
    zeros, so that some neighbor differences (-0.0 - 0.0) and a Hill
    state are -0.0."""
    if doc is None:
        with open(FIVE_AGENTS) as fh:
            model = model_mod.parse_model(fh.read())
    else:
        model = make_model(doc())
    N, n = len(model.agents), model.dim
    neighbor_rows = sim._neighbor_rows(model.agents)
    S = np.random.default_rng(5).uniform(-2, 2, size=(3, N, n))
    S[0], S[0, 2] = 0.0, -0.0
    S[1, ::2] = -0.0
    gathered = model_mod.NetworkField(model.agents, neighbor_rows)
    if doc is None:
        groups = [rows for _, rows, _, _ in gathered.groups]
        assert groups == [slice(0, 2), slice(2, 3), slice(3, 5)]
    block = np.full((3, 4) + S.shape, np.nan)
    slot = block[1, 2]
    assert gathered(S, slot) is slot
    for b in range(len(S)):
        frozen = model_mod.NetworkField(model.agents, nbr_refs=oracles.padded_refs(
            S[b, idx].reshape(-1) for idx in neighbor_rows
        ))
        out = np.full((N, n), np.nan)
        frozen(S[b], out)
        for r, agent in enumerate(model.agents):
            one = model_mod.eval_f(agent, S[b, r:r + 1], S[b, neighbor_rows[r]].reshape(1, -1))
            for got in (block[1, 2, b, r], out[r], gathered(S[b])[r]):
                assert got.tobytes() == one[0].tobytes(), (b, r)
    assert np.isnan(block[1, :2]).all() and np.isnan(block[1, 3]).all()
    assert np.signbit(block[1, 2]).any()


def test_gathered_and_frozen_neighbors_give_equal_bits():
    """f_i is one function with two sources for the neighbor states.  Read
    from the state S, or frozen at S's neighbor rows, they give the same
    bits, on every dynamics variant and on each state of a batch."""
    model = make_model(heterogeneous_doc())
    neighbor_rows = sim._neighbor_rows(model.agents)
    gathered = model_mod.NetworkField(model.agents, neighbor_rows)
    batch = np.random.default_rng(7).uniform(-2, 2, size=(3, len(model.agents), model.dim))
    F = gathered(batch)
    for S, F_S in zip(batch, F):
        frozen = model_mod.NetworkField(
            model.agents, nbr_refs=oracles.padded_refs(S[idx].reshape(-1) for idx in neighbor_rows)
        )
        assert np.array_equal(frozen(S), F_S)
        assert np.array_equal(frozen(S), gathered(S))
        assert np.array_equal(frozen.M, gathered.M)
    assert np.any(F != 0)


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


def with_integ_tol(ab, integ_tol):
    """A fresh abstraction of ab's stack with another audit tolerance."""
    return abstraction_mod.Abstraction(
        ab.model, ab.params, ab.families, ab.decs, substeps=ab.substeps, integ_tol=integ_tol
    )


def skip_reference_audit(monkeypatch):
    """Let the closed-loop audit be the only one that can fail."""
    monkeypatch.setattr(controller.ReferenceStack, "audit", lambda self, *args: None)


def test_closed_loop_audit_failure_names_the_interval(pair_run, monkeypatch):
    model, ab, plan, schedule, _ = pair_run
    skip_reference_audit(monkeypatch)
    with pytest.raises(IntegrationError, match="closed-loop interval 0 audit"):
        sim.simulate_closed_loop(model, with_integ_tol(ab, 1e-30), schedule, plan.m)


@pytest.fixture(scope="module")
def heterogeneous_case():
    model, params, ab = make_stack(heterogeneous_doc(), steps=4, integ_tol=1e-6)
    m = 4
    return model, ab, heterogeneous_schedule(ab, m, np.random.default_rng(3)), m


def record_closed_loop(monkeypatch, nan_at=None):
    """Record the closed loop's coarse runs as (rhs, y0, dense), one per
    interval reached, and its audit estimates; every run of interval
    ``nan_at`` gets a NaN endpoint.  A raw run's rhs is raw_run's tracked
    one, which carries the closed loop's name, and the saturated re-run
    of an interval (from the same start state) replaces its raw run.
    Reference runs and audits are not recorded."""
    runs, audits = [], []
    rk4_dense, check_audit = integrate.rk4_dense, integrate.check_audit

    def dense(rhs, y0, dt, substeps):
        out = rk4_dense(rhs, y0, dt, substeps)
        if "simulate_closed_loop" in rhs.__qualname__:
            if runs and runs[-1][1] is y0:
                runs.pop()
            if len(runs) == nan_at:
                out.ys[-1, 0, 0] = np.nan
            runs.append((rhs, y0, out))
        return out

    def audit(coarse, fine, integ_tol, what="integration", runs=None):
        err = check_audit(coarse, fine, integ_tol, what=what, runs=runs)
        if "simulate_closed_loop" in getattr(what, "__qualname__", ""):
            audits.append(err)
        return err

    monkeypatch.setattr(integrate, "rk4_dense", dense)
    monkeypatch.setattr(integrate, "check_audit", audit)
    return runs, audits


def saturate_every_stage(monkeypatch):
    """The per-stage path: every raw run fails its check before it
    starts, so each run is made on the saturated right-hand side, and
    model.saturate is the oracle's, which divides on every batch."""

    def no_raw_run(run, rhs, bounds, y0, dt, substeps):
        return None, np.zeros(np.shape(y0)[:-1], dtype=bool)

    monkeypatch.setattr(controller, "raw_run", no_raw_run)
    monkeypatch.setattr(model_mod, "saturate", oracles.saturate)


def record_raw_runs(monkeypatch):
    """Record every raw_run as (its rhs's name, y0's shape, ok)."""
    records = []
    raw_run = controller.raw_run

    def recorded(run, rhs, bounds, y0, dt, substeps):
        out, ok = raw_run(run, rhs, bounds, y0, dt, substeps)
        records.append((rhs.__qualname__, np.shape(y0), ok))
        return out, ok

    monkeypatch.setattr(controller, "raw_run", recorded)
    return records


def test_batched_audit_equals_per_interval_audits(heterogeneous_case, monkeypatch):
    """One audit over all intervals gives, bit for bit, the estimates of
    one check_audit per interval, on that interval's coarse run and a fine
    run saturated at every stage; so does the run with raw runs."""
    model, ab, schedule, m = heterogeneous_case
    with monkeypatch.context() as patch:
        saturate_every_stage(patch)
        runs, audits = record_closed_loop(patch)
        sim.simulate_closed_loop(model, ab, schedule, m)
        assert len(runs) == m and len(audits) == 1
        assert audits[0].shape == (m, len(model.agents))
        for k, (rhs, y0, dense) in enumerate(runs):
            fine = integrate.rk4_endpoint(rhs, y0, ab.params.dt, 2 * ab.substeps)
            alone = integrate.check_audit(dense.endpoint, fine, ab.integ_tol)
            assert np.array_equal(audits[0][k], alone)
    _, raw = record_closed_loop(monkeypatch)
    sim.simulate_closed_loop(model, ab, schedule, m)
    assert np.array_equal(raw[0], audits[0])


def test_closed_loop_makes_one_fine_run_and_one_input_call(heterogeneous_case, monkeypatch):
    """The stacked reference run, its audit and the stage table (in blocks
    of stage times) come first, through the frozen-neighbor field over
    every reference row; no reference row binds, so each is one raw run.
    After them every field call is a closed-loop stage over the N network
    rows, with neighbors read from the state.  Interval 1's raw run fails
    its check and runs again saturated, and intervals 2 and 3 run
    saturated with no raw run: m + 1 coarse runs.  Intervals 1 to 3 fail
    the check of the fine run, and only they run it again, together.  One
    input call ends the loop."""
    model, ab, schedule, m = heterogeneous_case
    # a fresh abstraction, so the reference stack is integrated here
    fresh = abstraction_mod.Abstraction(
        model, ab.params, ab.families, ab.decs, substeps=ab.substeps, integ_tol=ab.integ_tol
    )
    calls = []
    real = model_mod.NetworkField.__call__

    def counting(self, S, out=None):
        calls.append((self.frozen, S.shape))
        return real(self, S, out)

    monkeypatch.setattr(model_mod.NetworkField, "__call__", counting)
    records = record_raw_runs(monkeypatch)
    sim.simulate_closed_loop(model, fresh, schedule, m)
    substeps, N, dt = ab.substeps, len(model.agents), ab.params.dt
    rows = len(dict.fromkeys((i, step.config) for i in model.agent_ids for step in schedule[i][:m]))
    coarse, fine = 4 * substeps + 1, 8 * substeps
    run = coarse + fine
    times = np.unique(np.concatenate((
        integrate.stage_times(dt, substeps, dense=True), integrate.stage_times(dt, 2 * substeps)
    )))
    table = -(-len(times) // sim.TABLE_BLOCK)
    refs = [shape for frozen, shape in calls[: run + table]]
    assert all(frozen for frozen, _ in calls[: run + table])
    assert [len(shape) for shape in refs] == [2] * run + [3] * table
    assert sum(shape[0] for shape in refs[run:]) == len(times)
    assert all(shape[-2] == rows for shape in refs)
    loop = calls[run + table :]
    assert len(loop) == (m + 1) * coarse + 2 * fine + 1
    assert all(not frozen and shape[-2] == N for frozen, shape in loop)
    # the fine run over the m intervals, its re-run of intervals 1 to 3, the input call
    tail = [shape[:-2] for _, shape in loop[(m + 1) * coarse :]]
    assert tail == [(m,)] * fine + [(3,)] * fine + [(m * substeps + 1,)]
    oks = [ok for _, _, ok in records]
    assert [ok.shape for ok in oks] == [(rows,), (rows,), (N,), (N,), (m, N)]
    assert oks[0].all() and oks[1].all() and oks[2].all() and not oks[3].all()
    assert oks[4].all(axis=1).tolist() == [True, False, False, False]


# the feedback bound that heterogeneous_case's interval 1 breaks
KBAR_NOTE = "(agent 9: |kbar_i|/v_max up to 1.17)"


def test_closed_loop_audit_names_the_lowest_failing_interval(heterogeneous_case, monkeypatch):
    model, ab, schedule, m = heterogeneous_case
    runs, audits = record_closed_loop(monkeypatch)
    sim.simulate_closed_loop(model, ab, schedule, m)
    worst = audits[0].max(axis=1)
    tol = 4e-15
    # intervals 1 to 3 fail; 1 is named, though it is not the worst, with
    # the feedback bound its raw run broke
    assert worst[0] <= tol < worst[1] and tol < worst[2] and tol < worst[3]
    assert worst[1] < worst.max()
    skip_reference_audit(monkeypatch)
    with pytest.raises(IntegrationError, match=re.escape(
        f"closed-loop interval 1 {KBAR_NOTE} audit: step-halving estimate {worst[1]:.3e} "
        f"exceeds tolerance {tol:.3e}; raise substeps"
    )):
        sim.simulate_closed_loop(model, with_integ_tol(ab, tol), schedule, m)


def test_a_tie_in_the_audit_note_names_the_agent_first_in_model_order(monkeypatch):
    """Agents 2 and 3 sit outside their hills (f = 0) with equal bounds,
    cells and w, so their realized |kbar_i|/v_max are equal.  The closed
    loop runs agent 3 with agent 1, its dynamics group, ahead of agent 2;
    the failing interval's note still names agent 2, first in model order."""

    def hill_agent(i, C, x0):
        return {"id": i, "dim": 2, "neighbors": [], "v_max": 1.0, "M": 1.0, "L1": 0.0,
                "L2": 1.0, "x0": x0, "dynamics": {"type": "gradient-hill", "C": C, "R": 4.0}}

    doc = {"horizon": 1.0, "tau": 0.3, "spec": {}, "agents": [
        hill_agent(1, 1.0, [0.7, -0.4]), hill_agent(2, 0.5, [10.0, 0.0]),
        hill_agent(3, 1.0, [10.0, 0.0]),
    ]}
    model, params, ab = make_stack(doc, lam={1: 0.5, 2: 0.5, 3: 0.5}, steps=5, integ_tol=1e-30)
    assert [model.agents[r].id for r in model_mod.group_order(model.agents)] == [1, 3, 2]
    schedule = {}
    for agent in model.agents:
        dec = ab.decs[agent.id]
        cells = sorted(dec.initiating_set, key=lambda c: (
            float(np.sum((grid.reference_point(dec, c) - agent.x0) ** 2)), c
        ))
        # agent 1 steers to its nearest cell with w = 0; 2 and 3 far off, at full w
        cell = cells[0] if agent.id == 1 else cells[-1]
        gap = grid.reference_point(dec, cell) - agent.x0
        w = np.zeros(2) if agent.id == 1 else gap / np.linalg.norm(gap) * agent.v_max
        schedule[agent.id] = [abstraction_mod.Action(
            agent_id=agent.id, config=(cell,), target=None, point=None, w=w
        )]
    assert ab.decs[2].initiating_set == ab.decs[3].initiating_set
    skip_reference_audit(monkeypatch)
    with pytest.raises(IntegrationError, match=re.escape(
        "closed-loop interval 0 (agent 2: |kbar_i|/v_max up to 8.18) audit"
    )):
        sim.simulate_closed_loop(model, ab, schedule, 1)


def test_non_finite_coarse_endpoint_stops_the_closed_loop(heterogeneous_case, monkeypatch):
    """Interval 2's NaN endpoint fails its audit; interval 3 is never integrated."""
    model, ab, schedule, m = heterogeneous_case
    runs, _ = record_closed_loop(monkeypatch, nan_at=2)
    with pytest.raises(IntegrationError, match=re.escape(
        "closed-loop interval 2 (agent 4: |kbar_i|/v_max up to 1.17) audit: the integrated "
        "endpoint is not finite"
    )):
        sim.simulate_closed_loop(model, ab, schedule, m)
    assert len(runs) == 3


def test_earlier_audit_failure_wins_over_a_later_non_finite_endpoint(
    heterogeneous_case, monkeypatch
):
    model, ab, schedule, m = heterogeneous_case
    runs, _ = record_closed_loop(monkeypatch, nan_at=2)
    skip_reference_audit(monkeypatch)
    with pytest.raises(IntegrationError, match=re.escape(
        f"closed-loop interval 1 {KBAR_NOTE} audit: step-halving"
    )):
        sim.simulate_closed_loop(model, with_integ_tol(ab, 4e-15), schedule, m)
    assert len(runs) == 3


def test_a_non_finite_raw_endpoint_runs_again_and_stops_the_closed_loop(
    heterogeneous_case, monkeypatch
):
    """Interval 0's raw run would pass its check; a NaN endpoint fails it,
    and the saturated re-run's NaN endpoint stops the loop there.  The
    fine run of interval 0 starts at x0 and passes."""
    model, ab, schedule, m = heterogeneous_case
    records = record_raw_runs(monkeypatch)
    runs, _ = record_closed_loop(monkeypatch, nan_at=0)
    with pytest.raises(IntegrationError, match=(
        "^closed-loop interval 0 audit: the integrated endpoint is not finite"
    )):
        sim.simulate_closed_loop(model, ab, schedule, m)
    assert len(runs) == 1 and not hasattr(runs[0][0], "__wrapped__")
    assert [ok.all() for name, _, ok in records if "simulate_closed_loop" in name] == [False, True]


def record_saturated_runs(monkeypatch):
    """Record the y0 shape of every RK4 run not made by raw_run."""
    shapes = []
    for name in ("rk4_dense", "rk4_endpoint"):
        def recorded(rhs, y0, *args, run=getattr(integrate, name)):
            if not hasattr(rhs, "__wrapped__"):
                shapes.append(np.shape(y0))
            return run(rhs, y0, *args)

        monkeypatch.setattr(integrate, name, recorded)
    return shapes


def test_binding_closed_loop_has_the_bits_of_the_per_stage_path(heterogeneous_case, monkeypatch):
    """Intervals 1 to 3 bind.  States, inputs and audit estimates of every
    interval have the bits of the path saturated at every stage with the
    oracle's saturate.  One raw interval is wasted: interval 1's, which
    runs again; 2 and 3 run saturated at once; the fine run runs again
    on the three failing intervals only."""
    model, ab, schedule, m = heterogeneous_case
    with monkeypatch.context() as patch:
        saturate_every_stage(patch)
        _, expected_err = record_closed_loop(patch)
        expected = sim.simulate_closed_loop(model, with_integ_tol(ab, ab.integ_tol), schedule, m)
    records = record_raw_runs(monkeypatch)
    saturated = record_saturated_runs(monkeypatch)
    _, err = record_closed_loop(monkeypatch)
    traj = sim.simulate_closed_loop(model, with_integ_tol(ab, ab.integ_tol), schedule, m)
    for a, b in ((traj.ts, expected.ts), (traj.states, expected.states),
                 (traj.inputs, expected.inputs), (err[0], expected_err[0])):
        assert a.tobytes() == b.tobytes()
    loop = [ok for name, _, ok in records if "simulate_closed_loop" in name]
    assert [ok.all(axis=-1).tolist() for ok in loop] == [True, False, [True, False, False, False]]
    N, n = len(model.agents), model.dim
    assert saturated == [(N, n)] * 3 + [(3, N, n)]


def test_binding_reference_rows_have_the_bits_of_the_per_stage_path(monkeypatch):
    """A ring whose M is scaled by 0.4: two of nine reference rows bind.
    The stack, its audit estimates and an endpoint batch have the bits of
    runs saturated at every stage with the oracle's saturate, and only
    the two failing rows run again."""
    workloads = ring_workloads()
    doc = ring_doc(1)
    for agent in doc["agents"]:
        agent["M"] *= 0.4
    model, params, ab = make_stack(
        doc, lam={i: workloads.RING_LAMBDA for i in workloads.RING_IDS}, steps=workloads.RING_STEPS
    )
    schedule = heterogeneous_schedule(ab, 4, np.random.default_rng(5))
    pairs = list(dict.fromkeys((i, step.config) for i in model.agent_ids for step in schedule[i]))
    agents = [model.agent(i) for i, _ in pairs]
    own, nbr = (np.stack(v) for v in zip(*(oracles.config_refs(ab, *pair) for pair in pairs)))
    field = model_mod.NetworkField(agents, nbr_refs=nbr)

    def g(t, y):
        return oracles.saturate(field(y), field.M)

    dense = integrate.rk4_dense(g, own, params.dt, ab.substeps)
    fine = integrate.rk4_endpoint(g, own, params.dt, 2 * ab.substeps)
    with monkeypatch.context() as patch:
        records = record_raw_runs(patch)
        saturated = record_saturated_runs(patch)
        refs = ab.reference_for(pairs)
        err = refs.audit(math.inf, model.agent_ids)
        endpoints = controller.reference_endpoints(agents, own, nbr, params.dt, ab.substeps)
    assert refs.traj.ys.tobytes() == dense.ys.tobytes()
    assert refs.traj.ds.tobytes() == dense.ds.tobytes()
    assert endpoints.tobytes() == dense.endpoint.tobytes()
    assert err.tobytes() == integrate.check_audit(dense.endpoint, fine, math.inf).tobytes()
    failing = [np.flatnonzero(~ok).tolist() for _, _, ok in records]
    assert len(failing) == 3 and len(failing[0]) == 2 and failing[1:] == [failing[0]] * 2
    assert saturated == [(2, model.dim)] * 3


def test_reference_audit_failure_names_the_agent(pair_run):
    """Agent 1's references are constant and pass; agent 2's batch fails."""
    model, ab, plan, schedule, _ = pair_run
    with pytest.raises(IntegrationError, match="reference of agent 2 audit"):
        sim.simulate_closed_loop(model, with_integ_tol(ab, 1e-30), schedule, plan.m)


@pytest.mark.parametrize("stack", ["heterogeneous", "ring"])
def test_stacked_references_match_per_agent_runs(stack):
    """One stack over every agent's configurations gives each row the bits
    of integrate_reference on that agent's rows, audit estimates included."""
    if stack == "ring":
        model, _, ab = ring_stack(seed=1)
    else:
        model, _, ab = make_stack(heterogeneous_doc(), steps=4, integ_tol=1e-6)
    schedule = heterogeneous_schedule(ab, 4, np.random.default_rng(5))
    pairs = list(dict.fromkeys(
        (i, step.config) for i in model.agent_ids for step in schedule[i]
    ))
    refs = ab.reference_for(pairs)
    err = refs.audit(ab.integ_tol, model.agent_ids)
    for agent in model.agents:
        rows = [r for r, (i, _) in enumerate(pairs) if i == agent.id]
        own, nbr = (
            np.stack(v) for v in zip(*(oracles.config_refs(ab, *pairs[r]) for r in rows))
        )
        alone = controller.integrate_reference(
            agent, own, nbr, ab.params.dt, ab.substeps, ab.integ_tol
        )
        assert np.array_equal(refs.traj.ys[:, rows], alone.traj.ys)
        assert np.array_equal(refs.traj.ds[:, rows], alone.traj.ds)
        assert np.array_equal(err[rows], alone.audit_err)
    # the stack is kept and its endpoints serve the Posts
    assert ab.reference_for(pairs) is refs
    for r, pair in enumerate(pairs):
        assert np.array_equal(ab.endpoint(*pair), refs.endpoint[r])


def test_five_agents_validate_integrates_each_reference_once(tmp_path, monkeypatch):
    """validate makes one reference stack, no Post endpoint batch and no
    per-agent reference run."""
    from horizon_abs import cli

    flags = ["--model", FIVE_AGENTS, "--out", str(tmp_path), "--steps", "12",
             "--lambda", "1=0.35", "--lambda", "5=0.35"]
    assert cli.main(["plan"] + flags) == 0
    calls = []
    for name in ("reference_endpoints", "integrate_reference"):
        monkeypatch.setattr(controller, name, lambda *a, name=name, **k: calls.append(name))
    stack = controller.ReferenceStack.__init__

    def counted(self, *args, **kwargs):
        calls.append("stack")
        stack(self, *args, **kwargs)

    monkeypatch.setattr(controller.ReferenceStack, "__init__", counted)
    assert cli.main(["validate"] + flags) == 0
    assert calls == ["stack"]


def test_reference_audit_names_the_first_failing_agent_with_its_worst_row(heterogeneous_case):
    """With the stack in reverse model order and every nonzero estimate
    failing, the error names the first failing agent in model order and
    the worst estimate over its rows."""
    model, ab, schedule, m = heterogeneous_case
    pairs = list(dict.fromkeys(
        (i, step.config) for i in reversed(model.agent_ids) for step in schedule[i]
    ))
    refs = ab.reference_for(pairs)
    err = refs.audit(1.0, model.agent_ids)
    tol = float(np.min(err[err > 0])) / 2
    owner = np.array([i for i, _ in pairs])
    first = next(i for i in model.agent_ids if np.any(err[owner == i] > tol))
    assert first != pairs[0][0] and len(set(owner[err > tol])) > 1
    with pytest.raises(IntegrationError, match=re.escape(
        f"reference of agent {first} audit: step-halving estimate "
        f"{np.max(err[owner == first]):.3e} exceeds tolerance {tol:.3e}"
    )):
        refs.audit(tol, model.agent_ids)


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
            ref = ab.reference_for([(i, step.config)])
            predicted = ref.traj.eval(dt)[0] + lam * dt * step.w
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
    """The closed loop runs at the abstraction's substeps, and a plan's
    schedule holds at 50 of them too."""
    model, ab, plan, schedule, _ = pair_run
    coarse = abstraction_mod.Abstraction(model, ab.params, ab.families, ab.decs, substeps=50)
    traj = sim.simulate_closed_loop(model, coarse, schedule, plan.m)
    assert traj.substeps == 50
    assert len(traj.ts) == plan.m * 50 + 1
    assert sim.validate_plan(model, ab, plan, traj).passed


def test_open_loop_integrates_declared_inputs():
    model = make_model(single_doc())
    v = np.array([0.6, -0.3])
    traj = oracles.simulate_open_loop(model, {1: lambda t: v}, 0.8)
    # zero dynamics: the state moves exactly along the input
    assert np.allclose(traj.states[-1, 0], model.agent(1).x0 + 0.8 * v, atol=1e-12)
    assert np.allclose(traj.inputs[:, 0], v)


def test_open_loop_rejects_oversized_inputs():
    model = make_model(single_doc())
    with pytest.raises(ModelError, match="exceeds v_max"):
        oracles.simulate_open_loop(model, {1: lambda t: np.array([2.0, 0.0])}, 0.5)


def test_trajectory_csv_round_trip(pair_run):
    model, _, _, _, traj = pair_run
    text = sim.trajectory_to_csv(traj)
    back = sim.trajectory_from_csv(text, model)
    assert back.agent_ids == traj.agent_ids
    assert np.array_equal(back.ts, traj.ts)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.inputs, traj.inputs)
    finals = sim.final_states_from_csv(text, model)
    for a, i in enumerate(traj.agent_ids):
        assert np.array_equal(finals[i], traj.states[-1, a])


def test_csv_writer_matches_the_scalar_writer():
    values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]
    rng = np.random.default_rng(0)
    states = rng.choice(values, size=(4, 3, 2)) * rng.choice([1.0, rng.random()], size=(4, 3, 2))
    traj = sim.Trajectory(
        ts=np.array([0.0, 5e-324, 0.1, 1e300]),
        states=states,
        inputs=rng.choice(values, size=(4, 3, 2)),
        agent_ids=(1, 2, 7),
        substeps=3,
    )
    text = sim.trajectory_to_csv(traj)
    assert text == scalar_trajectory_to_csv(traj)
    assert "-0.0" in text and "5e-324" in text and "1e+300" in text


def test_csv_rejects_malformed_documents(pair_stack):
    model = pair_stack[0]
    with pytest.raises(ModelError, match="empty trajectory"):
        sim.trajectory_from_csv("", model)
    with pytest.raises(ModelError, match="malformed trajectory header"):
        sim.trajectory_from_csv("a,b,c\n1,2,3\n", model)
    good_header = "t,agent,x1,x2,v1,v2\n"
    with pytest.raises(ModelError, match="malformed trajectory row"):
        sim.trajectory_from_csv(good_header + "0.0,1,0.0,oops,0.0,0.0\n", model)
    with pytest.raises(ModelError, match="unbalanced"):
        sim.trajectory_from_csv(
            good_header
            + "0.0,1,0.0,0.0,0.0,0.0\n"
            + "0.0,2,0.0,0.0,0.0,0.0\n"
            + "0.1,1,0.1,0.0,0.0,0.0\n",
            model,
        )
    with pytest.raises(ModelError, match="empty trajectory"):
        sim.final_states_from_csv("", model)


def test_csv_reader_holds_the_trajectory_contract(pair_run):
    """A file the writer could not have written for the model is a
    ModelError: a non-finite value, agent ids other than the model's,
    other than 2 + 2 * dim columns, times that do not start at 0 or do not
    increase strictly, or a time without one row per agent."""
    model, _, _, _, traj = pair_run
    header, *rows = sim.trajectory_to_csv(traj).splitlines()
    per_time = len(traj.agent_ids)

    def read(lines, head=header):
        return sim.trajectory_from_csv("\n".join([head] + lines) + "\n", model)

    def with_value(r, col, value):
        cells = rows[r].split(",")
        cells[col] = value
        return rows[:r] + [",".join(cells)] + rows[r + 1:]

    read(rows)
    cases = {
        "non-finite": [with_value(7, 3, v) for v in ("nan", "inf", "-inf")]
        + [rows[:-per_time] + [",".join(["inf"] + ln.split(",")[1:]) for ln in rows[-per_time:]]],
        "are not the model's": [[ln.replace(",2,", ",9,", 1) for ln in rows]],
        "start at 0": [rows[::-1], rows[per_time:]],
        "increase strictly": [
            rows[:per_time] + rows[2 * per_time:3 * per_time] + rows[per_time:2 * per_time]
            + rows[3 * per_time:],
        ],
        # agent 1 twice at time 0 and agent 2 twice at the next time
        "one row per agent": [
            with_value(1, 1, "1")[:per_time] + with_value(per_time, 1, "2")[per_time:]
        ],
    }
    for match, variants in cases.items():
        for lines in variants:
            with pytest.raises(ModelError, match=match):
                read(lines)
    three = header + ",x3"
    with pytest.raises(ModelError, match="malformed trajectory header"):
        read([ln + ",0.0" for ln in rows], head=three)
    with pytest.raises(ModelError, match="malformed trajectory row"):
        read(with_value(3, 2, "0.0,0.0"))
