"""Feedback construction: saturation, parameter recovery, references,
and the exact auxiliary closed form against numerical integration."""

import json
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from horizon_abs import cli, controller, grid, integrate, reach
from horizon_abs import model as model_mod
from horizon_abs.errors import ExprError, ModelError

from conftest import (
    DRAW_SUBSTEPS,
    FIVE_AGENTS,
    heterogeneous_doc,
    make_model,
    make_stack,
    ring_doc,
    ring_workloads,
    single_doc,
)


def unit_disk_dec():
    fam = reach.ReachFamily(
        agent_id=1, base=reach.Ball(np.zeros(2), 1.0), c_rate=0.0, tau=0.3, T=1.0
    )
    return grid.build_decomposition(fam, math.sqrt(2.0), 0.1)


def pair_config(ab):
    """The initial-cell configuration of the consensus follower."""
    own = grid.locate(ab.decs[2], ab.model.agent(2).x0)
    nbr = grid.locate(ab.decs[1], ab.model.agent(1).x0)
    return (own, nbr)


def single_reference(ab, agent_id, config):
    own, nbr = oracles.config_refs(ab, agent_id, config)
    return controller.integrate_reference(
        ab.model.agent(agent_id), own, nbr, ab.params.dt, ab.substeps, ab.integ_tol,
    )


def follower_control(ab, config, rng):
    """A one-row batch: the follower's transition to its first successor."""
    model = ab.model
    target = ab.post(2, config)[0]
    action = ab.successor_action(2, config, target)
    own, nbr = oracles.config_refs(ab, 2, config)
    ref = controller.integrate_reference(
        model.agent(2), own[None], nbr[None], ab.params.dt, ab.substeps, ab.integ_tol,
    )
    x0 = oracles.sample_in_cell(ab.decs[2], config[0], rng)
    ctrl = oracles.TransitionControl(
        agent=model.agent(2),
        reference=ref,
        x_G=ref.own_ref,
        x0=x0[None],
        w=action.w[None],
        lam=ab.params.lam[2],
        dt=ab.params.dt,
    )
    return ctrl, action


def leader_disturbance(ab, config, rng):
    """A one-row batch of the leader's disturbance path."""
    path = oracles.sample_disturbance(
        ab.decs[1], config[1], ab.families[1].c_rate, ab.params.dt, rng
    )
    return oracles.PiecewiseLinearPath(path.ts, path.values[None])


def test_saturate():
    saturate = model_mod.saturate
    inside = np.array([0.3, -0.4])
    assert np.array_equal(saturate(inside, 1.0), inside)
    out = saturate(np.array([3.0, 4.0]), 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(out, [0.6, 0.8])
    assert np.array_equal(saturate(np.zeros(3), 2.0), np.zeros(3))
    batch = saturate(np.array([[3.0, 4.0], [0.1, 0.0]]), 1.0)
    assert np.allclose(batch, [[0.6, 0.8], [0.1, 0.0]])
    # a zero bound (M = 0) maps every row, the zero row included, to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = saturate(np.array([[3.0, 4.0], [0.0, 0.0]]), 0.0)
    assert np.array_equal(zero, np.zeros((2, 2)))


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def saturate_cases():
    """(v, bound) pairs at and around the bound, with per-row bounds too."""
    up, down = np.nextafter(5.0, math.inf), np.nextafter(5.0, 0.0)
    # (3, 4) has the computed norm 5 exactly
    edge = np.array([[3.0, 4.0], [-3.0, 4.0], [0.3, -0.4]])
    rng = np.random.default_rng(11)
    batch = rng.uniform(-2, 2, size=(4, 5, 2))
    one_binds = batch.copy()
    one_binds[2, 3] = [30.0, -40.0]
    tiny = 1.0544516376811517e-161
    cases = [(edge, bound) for bound in (5.0, up, down)]
    cases += [(edge, np.array([[5.0], [down], [up]])), (edge, np.array([[up], [5.0], [down]]))]
    cases += [
        (edge, 0.0),
        (np.array([[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]), 0.0),
        (np.array([[-0.0, 0.0], [1.0, -0.0]]), 2.0),
        (np.array([[-0.0, 0.0], [-1.0, -0.0]]), 0.5),
        (np.array([[math.nan, 1.0], [0.1, 0.2]]), 1.0),
        (np.array([[math.nan, 1.0], [3.0, 4.0]]), 1.0),
        (batch, 4.0),
        (batch, 1.0),
        (one_binds, 4.0),
        (one_binds, np.full((5, 1), 4.0)),
        (batch, np.linspace(0.5, 3.0, 5)[:, None]),
        # under the sup-norm check's range: the squares are subnormal, and
        # this row's computed norm is 1% over its padded sup-norm bound
        (np.array([[tiny, tiny], [1e-161, 0.0]]), tiny * math.sqrt(2) * (1 + 10 * 2.0**-52)),
    ]
    # this row's computed norm rounds one ulp past sqrt(n) * max|v_k|, which the pad covers
    cases.append((np.full((1, 3), 1.009022923470819), 1.009022923470819 * math.sqrt(3)))
    # the sup-norm check at its edge: max|v_k| * sqrt(n), padded, equals the bound
    for n in (1, 2, 3, 7):
        v = rng.uniform(-1, 1, size=(6, n))
        v[0] = np.abs(v).max()
        top = float(np.abs(v).max())
        pad = top * math.sqrt(n) * (1 + (n + 8) * 2.0**-52)
        cases += [(v, pad), (v, np.nextafter(pad, 0.0)), (v, top * math.sqrt(n))]
    return cases


@pytest.mark.parametrize("v, bound", saturate_cases())
def test_saturate_has_the_bits_of_the_divide_on_every_batch(v, bound):
    assert_same_bits(model_mod.saturate(v, bound), oracles.saturate(v, bound))


@pytest.mark.parametrize("row, bound", [
    ([math.inf, 0.0], 1.0),
    ([-math.inf, 1.0], 1.0),
    ([math.inf, -math.inf], 1.0),
    # over the sup-norm check's range: the squares overflow
    ([1e200, 1e200], 1e300),
    ([1e200, 0.0], 2.5),
    ([-3e200, 4e200], 1e100),
])
def test_saturate_of_an_infinite_norm_warns_nothing(row, bound):
    """A row with an infinite entry has the oracle's bits, NaN where it
    is past the bound.  A finite row whose squares overflow is measured as
    max|v_k| * |v / max|v_k||, so that it is projected onto the bound,
    not zeroed; the oracle, which zeroes it, warns.  Other rows keep the
    oracle's bits."""
    v = np.array([row, [0.1, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = model_mod.saturate(v, bound)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles.saturate(v, bound)
    if np.all(np.isfinite(row)):
        top = float(np.max(np.abs(row)))
        norm = top * math.hypot(*(x / top for x in row))
        expected[0] = v[0] * min(1.0, bound / norm)
        np.testing.assert_allclose(out[0], expected[0], rtol=1e-15)
        out[0] = expected[0]
    assert_same_bits(out, expected)


def count_runs(monkeypatch):
    """Count the package's RK4 runs: "raw" on raw_run's tracked right-hand
    side (which wraps the raw one), "saturated" on any other."""
    counts = {"raw": 0, "saturated": 0}
    for name in ("rk4_dense", "rk4_endpoint"):
        def counted(rhs, *args, run=getattr(integrate, name)):
            counts["raw" if hasattr(rhs, "__wrapped__") else "saturated"] += 1
            return run(rhs, *args)

        monkeypatch.setattr(integrate, name, counted)
    return counts


# raw runs of plan and validate per benchmark workload
BENCHMARK_RAW_RUNS = {"five_agents": (35, 15), "ring_product": (4, 6)}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_RAW_RUNS))
def test_benchmark_plan_and_validate_make_no_saturated_rerun(workload, monkeypatch, tmp_path):
    """No saturation of either benchmark workload binds: every RK4 run of
    plan and validate is a raw run that passes its check, and none runs
    again saturated."""
    workloads = ring_workloads()
    if workload == "five_agents":
        model, flags = FIVE_AGENTS, workloads.FIVE_AGENTS_FLAGS
    else:
        model, flags = tmp_path / "ring.json", workloads.RING_FLAGS
        model.write_text(json.dumps(ring_doc(100)))
    commands = (["plan", "--strategy", "auto"], ["validate"])
    for command, raw in zip(commands, BENCHMARK_RAW_RUNS[workload]):
        with monkeypatch.context() as patch:
            counts = count_runs(patch)
            args = command + ["--model", model, "--out", tmp_path / "out"] + flags
            assert cli.main([str(a) for a in args]) == 0
        assert counts == {"raw": raw, "saturated": 0}, command


def constant_rows(f):
    """The raw right-hand side of rows with the constant fields f, in the
    plain form, whose slope raw_run watches."""
    return lambda t, y: f


# one row each: zero, a magnitude too small for the padded bound, NaN,
# inf, within the bound of 1, and over it
HAZARD_ROWS = np.array(
    [[0.0, 0.0], [2.0**-501, 0.0], [math.nan, 0.0], [math.inf, 0.0], [0.5, -0.5], [1.5, 0.0]]
)


def test_raw_run_passes_only_rows_provably_within_their_bound():
    y0 = np.zeros_like(HAZARD_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, ok = controller.raw_run(
            integrate.rk4_endpoint, constant_rows(HAZARD_ROWS), (1.0,), y0, 1.0, 4
        )
    assert ok.tolist() == [True, False, False, False, True, False]
    assert np.array_equal(out[[0, 4]], HAZARD_ROWS[[0, 4]])


def test_checked_run_runs_only_the_failing_rows_again():
    """Rows failing the check run again saturated, alone; the batch has
    the bits of the run saturated at every stage."""
    y0 = np.zeros_like(HAZARD_ROWS)
    again = []

    def exact(index):
        again.append(index.tolist())
        return lambda t, y: oracles.saturate(HAZARD_ROWS[index], 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the saturated inf row warns, as it always has
        out = controller.checked_run(
            integrate.rk4_endpoint, constant_rows(HAZARD_ROWS), exact, (1.0,), y0, 1.0, 4
        )
        expected = integrate.rk4_endpoint(
            lambda t, y: oracles.saturate(HAZARD_ROWS, 1.0), y0, 1.0, 4
        )
    assert again == [[1, 2, 3, 5]]
    assert_same_bits(out, expected)


def hazard_rhs(call, row, value):
    """An in-place right-hand side of three rows with a zero slope and one
    watched array of 0.5, except that at stage call ``call`` (counted
    from 0 over the run) row ``row`` of the watched array is ``value``."""
    calls = []

    def rhs(t, y, out):
        out[0] = 0.0
        out[1] = 0.5
        if len(calls) == call:
            out[1, row] = value
        calls.append(t)

    rhs.width = 2
    return rhs, calls


@pytest.mark.parametrize("value", [2.0, math.nan, math.inf], ids=["over", "nan", "inf"])
@pytest.mark.parametrize("run", ["rk4_endpoint", "rk4_dense"])
def test_raw_run_fails_a_row_clipped_at_any_one_stage(run, value):
    """A watched value over its bound, NaN or inf at one stage of one step,
    at each of the four stage positions (and at rk4_dense's last
    derivative call), fails that row alone; the endpoints stay finite."""
    substeps, y0 = 3, np.zeros((3, 2))
    stages = 4 * substeps + (run == "rk4_dense")
    for call in range(4, 8) if run == "rk4_endpoint" else [4, 5, 6, 7, stages - 1]:
        rhs, calls = hazard_rhs(call, 1, value)
        out, ok = controller.raw_run(getattr(integrate, run), rhs, (1.0,), y0, 1.0, substeps)
        assert len(calls) == stages
        assert ok.tolist() == [True, False, True], call
    _, ok = controller.raw_run(getattr(integrate, run), hazard_rhs(-1, 1, value)[0], (1.0,),
                               y0, 1.0, substeps)
    assert ok.all()


@pytest.mark.parametrize("run, steps", [("rk4_endpoint", 5), ("rk4_dense", 6)])
def test_raw_run_tracks_its_watched_arrays_once_per_step(run, steps):
    """The running max is taken once per RK4 step over the whole stage
    block, and once more after rk4_dense's last derivative call."""
    blocks = []

    def counting(rhs, y0, dt, substeps):
        step = rhs.step
        rhs.step = lambda K: (blocks.append(K.shape), step(K))
        return getattr(integrate, run)(rhs, y0, dt, substeps)

    rhs, calls = hazard_rhs(-1, 0, 0.0)
    controller.raw_run(counting, rhs, (1.0,), np.zeros((3, 2)), 1.0, 5)
    assert blocks == [(2, 4, 3, 2)] * steps
    assert len(calls) == 4 * 5 + (run == "rk4_dense")


def wall_doc(x0):
    """One agent pushed along x at speed 4, saturated at M = 1, whose
    dynamics raise an expression error past x = 0.5."""
    doc = single_doc()
    doc["agents"][0].update(
        M=1.0, x0=x0, dynamics={"type": "expression", "exprs": ["4 + 0*sqrt(0.5 - x_i[1])", "0"]}
    )
    return doc


@pytest.mark.parametrize("x0, raises", [(0.0, False), (0.4, True)])
def test_an_expression_error_past_the_bound_ends_like_the_saturated_run(x0, raises):
    """The raw run reaches x = 1 and raises; from 0 the saturated run stops
    at 0.25 and returns, from 0.4 it passes 0.5 and raises."""
    agent = make_model(wall_doc([x0, 0.0])).agent(1)
    own, nbr = np.array([[x0, 0.0]]), oracles.padded_refs([np.zeros(0)])
    field = model_mod.NetworkField([agent], nbr_refs=nbr)
    out, ok = controller.raw_run(integrate.rk4_endpoint, lambda t, y: field(y), (1.0,), own, 0.25, 8)
    assert out is None and ok.tolist() == [False]

    def saturated():
        g = lambda t, y: oracles.saturate(field(y), 1.0)  # noqa: E731
        return integrate.rk4_endpoint(g, own, 0.25, 8)

    if raises:
        with pytest.raises(ExprError) as expected:
            saturated()
        with pytest.raises(ExprError, match=f"^{re.escape(str(expected.value))}$"):
            controller.reference_endpoints([agent], own, nbr, 0.25, 8)
    else:
        assert_same_bits(controller.reference_endpoints([agent], own, nbr, 0.25, 8), saturated())


def test_eval_g_saturates_the_raw_field(pair_stack):
    model, _, _ = pair_stack
    agent = model.agent(2)  # consensus with unit weight, M = 4
    x = np.zeros(2)
    near = np.array([1.0, 1.0])
    far = np.array([30.0, 40.0])
    assert np.array_equal(oracles.eval_g(agent, x, near), near)
    g = oracles.eval_g(agent, x, far)
    assert np.linalg.norm(g) == pytest.approx(4.0, rel=1e-15)
    assert np.allclose(g, [2.4, 3.2])


def test_r_i():
    assert controller.r_i(0.4, 1 / 6, 2.5) == pytest.approx(1 / 6, rel=1e-15)
    assert controller.r_i(0.0, 0.5, 3.0) == 0.0


def test_select_w_recovers_target():
    rng = np.random.default_rng(7)
    lam, dt, v = 0.55, 0.2, 2.0
    radius = controller.r_i(lam, dt, v)
    endpoint = rng.normal(size=2)
    for _ in range(50):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        x = endpoint + direction * radius * rng.random()
        w = controller.select_w(endpoint, x, lam, dt, v)
        assert np.linalg.norm(w) <= v * (1 + 1e-12)
        assert np.allclose(endpoint + lam * dt * w, x, rtol=1e-12, atol=1e-14)


def test_select_w_boundary_and_errors():
    lam, dt, v = 0.5, 0.2, 2.0
    endpoint = np.array([1.0, -1.0])
    radius = controller.r_i(lam, dt, v)
    on_edge = endpoint + np.array([radius, 0.0])
    w = controller.select_w(on_edge, on_edge, lam, dt, v)  # zero gap
    assert np.array_equal(w, np.zeros(2))
    w = controller.select_w(endpoint, on_edge, lam, dt, v)
    assert np.linalg.norm(w) == pytest.approx(v, rel=1e-12)
    # a gap within the numerical slack is clipped back onto the w-ball
    barely = endpoint + np.array([radius * (1 + 5e-10), 0.0])
    w = controller.select_w(endpoint, barely, lam, dt, v)
    assert np.linalg.norm(w) <= v * (1 + 1e-15)
    with pytest.raises(ModelError, match="outside the endpoint ball"):
        controller.select_w(endpoint, endpoint + np.array([2 * radius, 0.0]), lam, dt, v)
    assert np.array_equal(
        controller.select_w(endpoint, endpoint, 0.0, dt, v), np.zeros(2)
    )


def batch_configs(ab):
    """Three configurations of the follower: the initial one and two more own cells."""
    own, nbr = pair_config(ab)
    cells = sorted(ab.decs[2].initiating_set)
    return [(own, nbr), (cells[0], nbr), (cells[-1], nbr)]


def test_reference_starts_at_own_point_and_obeys_speed_cap(pair_stack):
    model, params, ab = pair_stack
    configs = batch_configs(ab)
    ref = ab.reference_for([(2, c) for c in configs])
    audit_err = ref.audit(ab.integ_tol, model.agent_ids)
    M = model.agent(2).M
    ts, ys = ref.traj.ts, ref.traj.ys
    assert ys.shape == (ab.substeps + 1, len(configs), 2)
    assert audit_err.shape == (len(configs),)
    for r, config in enumerate(configs):
        own, nbr = oracles.config_refs(ab, 2, config)
        assert np.array_equal(ref.traj.eval(0.0)[r], own)
        assert np.array_equal(ref.own_ref[r], own)
        assert np.array_equal(ref.nbr_refs[r], nbr)
        gaps = np.linalg.norm(np.diff(ys[:, r], axis=0), axis=-1)
        assert np.all(gaps <= M * np.diff(ts) * (1 + 1e-9) + 1e-12)
        assert audit_err[r] <= ab.integ_tol
    assert np.array_equal(ref.endpoint, ys[-1])


def test_reference_endpoints_match_dense_solution(pair_stack):
    """A batched dense run gives each row the bits of its single-row run."""
    model, params, ab = pair_stack
    configs = batch_configs(ab)
    ref = ab.reference_for([(2, c) for c in configs])
    audit_err = ref.audit(ab.integ_tol, model.agent_ids)
    for r, config in enumerate(configs):
        single = single_reference(ab, 2, config)
        assert np.array_equal(ref.traj.ys[:, r], single.traj.ys)
        assert np.array_equal(ref.traj.ds[:, r], single.traj.ds)
        assert audit_err[r] == single.audit_err
        own, nbr = oracles.config_refs(ab, 2, config)
        batched = controller.reference_endpoints(
            [model.agent(2)], own[None], nbr[None], params.dt, ab.substeps
        )
        assert np.array_equal(batched[0], ref.endpoint[r])
        assert np.array_equal(ab.endpoint(2, config), ref.endpoint[r])


def test_reference_endpoints_of_a_mixed_stack_match_one_row_runs():
    """Rows of every dynamics variant, the two-neighbor agent and dict
    weights in both neighbor orders, stacked in shuffled order, get the
    bits of their one-agent, one-row runs, which have the bits of the
    agent's own saturated field eval_g."""
    model, params, ab = make_stack(heterogeneous_doc(), steps=4)
    rng = np.random.default_rng(3)
    initiating = {i: sorted(dec.initiating_set) for i, dec in ab.decs.items()}

    def pick(i):
        return initiating[i][int(rng.integers(len(initiating[i])))]

    pairs = [
        (agent.id, (pick(agent.id),) + tuple(pick(j) for j in agent.neighbors))
        for agent in model.agents for _ in range(3)
    ]
    pairs = [pairs[r] for r in rng.permutation(len(pairs))]
    agents = [model.agent(i) for i, _ in pairs]
    own, nbr = zip(*(oracles.config_refs(ab, *pair) for pair in pairs))
    stacked = controller.reference_endpoints(
        agents, np.stack(own), oracles.padded_refs(nbr), params.dt, ab.substeps
    )
    for row, agent, o, b in zip(stacked, agents, own, nbr):
        alone = controller.reference_endpoints(
            [agent], o[None], oracles.padded_refs([b]), params.dt, ab.substeps
        )
        assert np.array_equal(row, alone[0])
        by_eval_g = integrate.rk4_endpoint(
            lambda t, y: oracles.eval_g(agent, y, b), o, params.dt, ab.substeps
        )
        assert np.array_equal(row, by_eval_g)


def test_batched_reference_audit_names_the_agent(pair_stack):
    _, params, ab = pair_stack
    refs = [oracles.config_refs(ab, 2, c) for c in batch_configs(ab)]
    own, nbr = (np.stack(v) for v in zip(*refs))
    with pytest.raises(integrate.IntegrationError, match="reference of agent 2 audit"):
        controller.integrate_reference(
            ab.model.agent(2), own, nbr, params.dt, substeps=2, integ_tol=1e-16
        )


def test_auxiliary_matches_closed_form(pair_stack):
    """The transition endpoint equals the closed form for any disturbance."""
    model, params, ab = pair_stack
    rng = np.random.default_rng(11)
    config = pair_config(ab)
    ctrl, action = follower_control(ab, config, rng)
    # the closed form at t = dt is the selected target point itself
    assert np.allclose(
        oracles.closed_form_endpoint(ctrl, params.dt)[0], action.point,
        rtol=1e-12, atol=1e-12,
    )
    for _ in range(4):
        dist = leader_disturbance(ab, config, rng)
        aux = oracles.integrate_auxiliary(
            ctrl, dist, substeps=DRAW_SUBSTEPS, integ_tol=1e-8
        )
        assert aux.kbar_max[0] < model.agent(2).v_max
        gap = np.max(np.abs(aux.endpoint - oracles.closed_form_endpoint(ctrl, params.dt)))
        assert gap <= 1e-8


def test_auxiliary_endpoint_ignores_the_start_state(pair_stack):
    model, params, ab = pair_stack
    rng = np.random.default_rng(12)
    config = pair_config(ab)
    ctrl_a, action = follower_control(ab, config, rng)
    ctrl_b, _ = follower_control(ab, config, rng)
    assert not np.array_equal(ctrl_a.x0, ctrl_b.x0)
    dist = leader_disturbance(ab, config, rng)
    end_a = oracles.integrate_auxiliary(ctrl_a, dist, substeps=DRAW_SUBSTEPS).endpoint
    end_b = oracles.integrate_auxiliary(ctrl_b, dist, substeps=DRAW_SUBSTEPS).endpoint
    assert np.max(np.abs(end_a - end_b)) <= 1e-8


def test_control_offsets_stay_bounded(pair_stack):
    """|w| <= v_max and the cell correction spans at most half a diameter."""
    model, params, ab = pair_stack
    rng = np.random.default_rng(13)
    dec = ab.decs[2]
    v = model.agent(2).v_max
    for cell in sorted(dec.initiating_set)[:10]:
        own_ref = grid.reference_point(dec, cell)
        config = (cell, pair_config(ab)[1])
        for target in ab.post(2, config):
            action = ab.successor_action(2, config, target)
            assert np.linalg.norm(action.w) <= v * (1 + 1e-12)
        for _ in range(5):
            x0 = oracles.sample_in_cell(dec, cell, rng)
            assert np.linalg.norm(own_ref - x0) <= params.d_max[2] / 2 * (1 + 1e-9)


def test_closed_form_rejects_times_outside_the_interval(pair_stack):
    _, params, ab = pair_stack
    rng = np.random.default_rng(14)
    ctrl, _ = follower_control(ab, pair_config(ab), rng)
    with pytest.raises(ModelError, match="outside"):
        oracles.closed_form_endpoint(ctrl, -0.01)
    with pytest.raises(ModelError, match="outside"):
        oracles.closed_form_endpoint(ctrl, params.dt + 0.01)


def test_auxiliary_audit_failure_raises(pair_stack):
    _, params, ab = pair_stack
    rng = np.random.default_rng(15)
    config = pair_config(ab)
    ctrl, _ = follower_control(ab, config, rng)
    dist = leader_disturbance(ab, config, rng)
    with pytest.raises(integrate.IntegrationError, match="auxiliary integration audit"):
        oracles.integrate_auxiliary(ctrl, dist, substeps=3, integ_tol=1e-16)


def test_sample_in_cell_membership(pair_stack):
    _, _, ab = pair_stack
    rng = np.random.default_rng(16)
    dec = ab.decs[2]
    cell = sorted(dec.initiating_set)[0]
    for _ in range(200):
        p = oracles.sample_in_cell(dec, cell, rng)
        assert grid.locate(dec, p) == cell
        assert dec.region.contains(p)


def test_sample_in_cell_falls_back_on_slivers():
    # cell (0, 1) of the unit-disk grid clips to the single point (0, 1),
    # which uniform rejection can never hit
    dec = unit_disk_dec()
    rng = np.random.default_rng(17)
    p = oracles.sample_in_cell(dec, (0, 1), rng, max_tries=50)
    assert np.allclose(p, [0.0, 1.0], atol=1e-12)


def test_sample_disturbance_stays_in_the_growing_tube(pair_stack):
    model, params, ab = pair_stack
    rng = np.random.default_rng(18)
    dec = ab.decs[1]
    cell = grid.locate(dec, model.agent(1).x0)
    c = ab.families[1].c_rate
    path = oracles.sample_disturbance(dec, cell, c, params.dt, rng)
    assert path.ts[0] == 0.0 and path.ts[-1] == params.dt
    assert grid.locate(dec, path(0.0)) == cell
    lo, hi = dec.box(cell)
    for t in rng.uniform(0.0, params.dt, size=200):
        p = path(t)
        slack = c * t + 1e-9
        assert np.linalg.norm(p - np.clip(p, lo, hi)) <= slack
        assert dec.region.contains(p, slack=slack)


def test_piecewise_linear_path():
    path = oracles.PiecewiseLinearPath([0.0, 1.0, 3.0], [[0.0, 0.0], [2.0, 0.0], [2.0, 4.0]])
    assert np.allclose(path.eval(0.5), [1.0, 0.0])
    assert np.allclose(path.eval(2.0), [2.0, 2.0])
    assert np.allclose(path.eval(-5.0), [0.0, 0.0])  # clamped
    assert np.allclose(path.eval(99.0), [2.0, 4.0])
    assert np.allclose(path(1.0), [2.0, 0.0])


def test_batched_auxiliary_rows_match_their_one_row_batches(instance_pool):
    """Each row of a batch has the bits of its one-row batch, retries included.

    At 10 substeps and a 1e-13 tolerance, some rows of the gradient-hill
    batch fail their first audit and are integrated again at 4x substeps.
    """
    draws = oracles.draw_transitions(instance_pool, 40, np.random.default_rng(7))
    groups = [g for g in oracles.group_draws(draws) if len(g) > 1][:2]
    assert {g[0].agent.dynamics.variant for g in groups} == {"gradient-hill", "linear-consensus"}
    retried = 0
    for group in groups:
        ctrl, dist = oracles.transition_batch(instance_pool, group, 10)
        batch = oracles.integrate_auxiliary(ctrl, dist, substeps=10, integ_tol=1e-13)
        first = oracles.integrate_auxiliary(ctrl, dist, substeps=10, integ_tol=math.inf)
        retried += int(np.count_nonzero(batch.audit_err != first.audit_err))
        for r in range(len(ctrl.x0)):
            one = oracles.integrate_auxiliary(
                ctrl.rows([r]), dist.rows([r]), substeps=10, integ_tol=1e-13
            )
            assert np.array_equal(one.endpoint[0], batch.endpoint[r])
            assert np.array_equal(one.kbar_max[0], batch.kbar_max[r])
            assert np.array_equal(one.audit_err[0], batch.audit_err[r])
    assert 0 < retried < sum(2 * len(g) for g in groups)
