"""Admissibility bounds, strict re-validation, and parameter synthesis.

The five-agent fractions asserted here were derived by hand from the
bound formulas: dt < (1-lam) v / (L1 |M| + L2 lam v) with |M| the
euclidean norm of neighbor speed caps M_j + v_j, and d_max the minimum
of the two diameter branches evaluated at dt = 1/6.
"""

import collections
import math
import re

import numpy as np
import pytest

import oracles
from horizon_abs import wellposed
from horizon_abs.errors import InfeasibleError, ModelError

from conftest import make_model, single_doc

# hand fractions for the five-agent benchmark at lam = {1: .35, 5: .35}
DT_BOUNDS = {1: 13 / 37, 2: 3 / 7, 3: 0.5, 4: 3 / 7, 5: 13 / 37}
DMAX_BOUNDS = {1: 41 / 42, 2: 11 / 21, 3: 1 / 3, 4: 11 / 21, 5: 41 / 42}


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def consensus_doc(neighbors):
    """Consensus agents coupled along ``neighbors`` (id -> neighbor ids)."""
    agent = {
        "dim": 2,
        "v_max": 2.0,
        "M": 4.0,
        "L1": 1.0,
        "L2": 1.0,
        "reach_radius": 5.0,
    }
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            dict(agent, id=i, neighbors=list(nbrs), x0=[float(i - 1), 0.0],
                 dynamics={"type": "linear-consensus",
                           "weights": {str(j): 1.0 for j in nbrs}})
            for i, nbrs in neighbors.items()
        ],
        "spec": {},
    }


def cycle_doc():
    """Two consensus agents coupled to each other."""
    return consensus_doc({1: [2], 2: [1]})


def all_to_all_doc(n):
    return consensus_doc({i: [j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)})


def test_norms_five_agents(five_model, five_params):
    assert wellposed.M_norm(five_model, 3) == 0.0
    assert wellposed.M_norm(five_model, 2) == 5.0  # M_3 + v_3
    assert wellposed.M_norm(five_model, 1) == 15.0  # M_2 + v_2
    assert wellposed.mu_norm(five_model, five_params, 3) == 0.0
    assert wellposed.mu_norm(five_model, five_params, 1) == 1.0


def test_dt_bounds_five_agents(five_model, five_params):
    for i, expect in DT_BOUNDS.items():
        assert close(wellposed.dt_bound(five_model, five_params, i), expect)


def test_dmax_bounds_five_agents(five_model, five_params):
    for i, expect in DMAX_BOUNDS.items():
        got = wellposed.dmax_bound(five_model, five_params, i, 1 / 6)
        assert close(got, expect)


def test_dmax_second_branch_is_active(five_model, five_params):
    # for agent 2 the first branch evaluates to 3/4, well above the bound
    got = wellposed.dmax_bound(five_model, five_params, 2, 1 / 6)
    assert close(got, 11 / 21)
    assert got < 3 / 4 - 0.1


def test_dmax_collapses_at_the_dt_supremum(five_model, five_params):
    sup = wellposed.dt_bound(five_model, five_params, 1)
    near = wellposed.dmax_bound(five_model, five_params, 1, sup * (1 - 1e-6))
    assert 0 < near < 1e-4


def test_dmax_rejects_dt_outside_interval(five_model, five_params):
    with pytest.raises(InfeasibleError, match="admissible interval"):
        wellposed.dmax_bound(five_model, five_params, 1, 0.0)
    with pytest.raises(InfeasibleError, match="admissible interval"):
        wellposed.dmax_bound(five_model, five_params, 1, 13 / 37)


def test_unconstrained_agent_has_infinite_dt_bound():
    model = make_model(single_doc())
    params = wellposed.synthesize(model)
    assert math.isinf(wellposed.dt_bound(model, params, 1))
    # L1 = 0 and lam = 0 also kill the denominator
    zero_lam = oracles.replace(params, lam={1: 0.0})
    assert math.isinf(wellposed.dt_bound(model, zero_lam, 1))


def test_synthesize_without_bound_uses_half_tau():
    model = make_model(single_doc())
    params = wellposed.synthesize(model)
    assert params.steps == 7  # smallest count with 1/steps < tau/2 = 0.15
    assert close(params.dt, 1 / 7)
    assert close(params.d_max[1], 0.999 * 1.2 / 7)  # both branches are 1.2 dt


def test_synthesize_honors_explicit_steps(five_model, five_params):
    assert five_params.steps == 12
    assert close(five_params.dt, 1 / 6)
    for i in DMAX_BOUNDS:
        expect = 0.999 * wellposed.dmax_bound(five_model, five_params, i, five_params.dt)
        assert five_params.d_max[i] == expect


def test_synthesize_rejects_infeasible_steps(five_model):
    with pytest.raises(InfeasibleError, match="agent 1"):
        wellposed.synthesize(five_model, lam={1: 0.35, 5: 0.35}, steps=5)
    # dt = 0.25 clears every agent bound but collides with tau
    with pytest.raises(InfeasibleError, match="tau"):
        wellposed.synthesize(five_model, lam={1: 0.35, 5: 0.35}, steps=8)
    with pytest.raises(ModelError, match="positive integer"):
        wellposed.synthesize(five_model, steps=0)


def test_synthesize_rejects_a_step_count_past_the_cap(five_model):
    """10**400 steps has no float time step; no count past the cap is taken."""
    for steps in (100001, 10**400):
        with pytest.raises(ModelError, match="positive integer at most 100000"):
            wellposed.synthesize(five_model, steps=steps)


def test_synthesize_auto_search(five_model):
    params = wellposed.synthesize(five_model, lam={1: 0.35, 5: 0.35})
    # target = min(13/37, tau) * 0.9 = 0.225, first admissible count is 9
    assert params.steps == 9
    assert close(params.dt, 2 / 9)
    assert not wellposed.check_params(five_model, params, five_model.tau)


def test_synthesize_validates_inputs(five_model):
    with pytest.raises(InfeasibleError, match=r"outside \[0, 1\)"):
        wellposed.synthesize(five_model, lam={3: 1.0})
    with pytest.raises(InfeasibleError, match="nonnegative"):
        wellposed.synthesize(five_model, mu={(3, 2): -0.1})
    for value in (math.nan, math.inf):
        with pytest.raises(InfeasibleError, match="finite and nonnegative"):
            wellposed.synthesize(five_model, mu={(3, 2): value})
    # (1, 3) would have agent 1 as a neighbor of agent 3, which has none
    with pytest.raises(ModelError, match=r"mu names \(1, 3\), which is no coupling edge"):
        wellposed.synthesize(five_model, mu={(1, 3): 0.01})
    with pytest.raises(ModelError, match="lambda names unknown agent 99"):
        wellposed.synthesize(five_model, lam={99: 0.4})
    with pytest.raises(ModelError, match="margin"):
        wellposed.synthesize(five_model, margin=0.0)


def test_check_params_accepts_synthesized(five_model, five_params):
    assert wellposed.check_params(five_model, five_params, five_model.tau) == []


def test_check_params_flags_scaled_dmax(five_model, five_params):
    bumped = oracles.with_scaled_dmax(five_params, 3, 1.01 / five_params.margin)
    violations = wellposed.check_params(five_model, bumped, five_model.tau)
    assert any("agent 3" in v and "d_max" in v for v in violations)
    # the original is untouched
    assert wellposed.check_params(five_model, five_params, five_model.tau) == []


def test_check_params_flags_edge_coupling(five_model, five_params):
    # halving d_max(1) leaves agent 2 above its edge cap mu * d_max(1)
    shrunk = oracles.with_scaled_dmax(five_params, 1, 0.5)
    violations = wellposed.check_params(five_model, shrunk, five_model.tau)
    assert any("edge (2 -> 1)" in v for v in violations)


def test_check_params_flags_bad_scalars(five_model, five_params):
    assert wellposed.check_params(
        five_model, oracles.replace(five_params, dt=0.0), five_model.tau
    ) == ["dt=0.0 must be positive"]
    violations = wellposed.check_params(
        five_model, oracles.replace(five_params, dt=0.26), five_model.tau
    )
    assert any("tau" in v for v in violations)
    bad_lam = oracles.replace(five_params, lam={**five_params.lam, 3: 1.0})
    violations = wellposed.check_params(five_model, bad_lam, five_model.tau)
    assert any("lambda" in v for v in violations)
    big_dt = oracles.replace(five_params, dt=0.36)  # above agent 1's bound 13/37
    violations = wellposed.check_params(five_model, big_dt, five_model.tau)
    assert any("agent 1" in v and "bound" in v for v in violations)


def test_cycle_with_unit_mu_product_synthesizes():
    model = make_model(cycle_doc())
    params = wellposed.synthesize(model)
    # the diameter propagation equalizes the two caps around the loop
    assert params.d_max[1] == params.d_max[2]
    assert wellposed.check_params(model, params, model.tau) == []


def test_cycle_with_shrinking_mu_product_rejected():
    model = make_model(cycle_doc())
    with pytest.raises(InfeasibleError, match=r"^cycle \(1, 2\): mu product 0.5 < 1$"):
        wellposed.synthesize(model, mu={(1, 2): 0.5})
    # an infeasible step count is found before the cycle
    with pytest.raises(InfeasibleError, match="agent 1: requested dt=0.5"):
        wellposed.synthesize(model, mu={(1, 2): 0.5}, steps=2)


def test_cycle_propagation_fixed_point():
    model = make_model(cycle_doc())
    params = wellposed.synthesize(model, mu={(1, 2): 2.0, (2, 1): 0.5})
    assert close(params.d_max[2], 0.5 * params.d_max[1])
    assert wellposed.check_params(model, params, model.tau) == []


@pytest.mark.parametrize("gain", [2.0, 10.0, 7.0])
def test_cycle_with_reciprocal_gains_synthesizes(gain):
    model = make_model(cycle_doc())
    for mu in ({(1, 2): gain, (2, 1): 1 / gain}, {(1, 2): 1 / gain, (2, 1): gain}):
        params = wellposed.synthesize(model, mu=mu)
        assert wellposed.check_params(model, params, model.tau) == []


def test_rounding_that_shrinks_d_max_around_a_unit_product_is_its_own_error():
    """float(1/3) lies below 1/3, and the propagation still takes an ulp
    off d_max around the loop in its last pass.  The error names the
    cycle and its product 1.0, and claims no product below 1."""
    model = make_model(cycle_doc())
    for mu in ({(1, 2): 3.0, (2, 1): 1 / 3}, {(1, 2): 1 / 3, (2, 1): 3.0}):
        with pytest.raises(InfeasibleError) as err:
            wellposed.synthesize(model, mu=mu)
        assert str(err.value) == (
            "cycle (1, 2): mu product 1.0 yet rounding shrinks d_max around it"
        )


def test_a_cycle_through_a_zero_gain_is_refused():
    """Where the zeros spread around the loop within N passes the
    propagation settles at 0; otherwise the cycle is named."""
    model = make_model(cycle_doc())
    with pytest.raises(InfeasibleError, match=r"^cycle \(1, 2\): mu product 0.0 < 1$"):
        wellposed.synthesize(model, mu={(1, 2): 0.0})
    with pytest.raises(InfeasibleError, match="agent 1: propagated d_max collapsed to 0.0"):
        wellposed.synthesize(model, mu={(2, 1): 0.0})


# gains with products of 0, exactly 1, 1 only in exact arithmetic, just below 1
GAINS = (0.0, 0.5, 1 - 2**-52, 1.0, 1.5, 2.0, 3.0, 7.0, 10.0, 0.1, 1 / 3, 1 / 7)
RECIPROCAL = {g: 1 / g for g in (2.0, 0.5, 3.0, 1 / 3, 7.0, 1 / 7, 10.0, 0.1)}


def random_coupling(rng):
    """A random digraph of 2 to 6 agents and a gain on each edge.  Half
    the edges whose reverse carries a reciprocal gain get its partner."""
    n = int(rng.integers(2, 7))
    neighbors = {
        i: [j for j in range(1, n + 1) if j != i and rng.random() < 0.5]
        for i in range(1, n + 1)
    }
    mu = {}
    for i, nbrs in neighbors.items():
        for j in nbrs:
            back = mu.get((i, j))
            if back in RECIPROCAL and rng.random() < 0.5:
                mu[(j, i)] = RECIPROCAL[back]
            else:
                mu[(j, i)] = GAINS[rng.integers(len(GAINS))]
    return neighbors, mu


def replayed_dmax(model, params):
    """d_max as the propagation capped at N**2 + 1 passes left it, or None
    where it did not settle."""
    d_max = {
        a.id: params.margin * wellposed.dmax_bound(model, params, a.id, params.dt)
        for a in model.agents
    }
    for _ in range(len(model.agents) ** 2 + 1):
        changed = False
        for (j, i) in model.edges():
            cap = params.mu[(j, i)] * d_max[i]
            if d_max[j] > cap:
                d_max[j] = cap
                changed = True
        if not changed:
            return d_max
    return None


def test_the_propagation_agrees_with_cycle_enumeration():
    """Feasible where every simple cycle's mu product is at least 1, with
    the d_max of the N**2 + 1-pass propagation; otherwise a cycle the
    enumeration flags, with its message.  A zero gain may instead
    collapse d_max, and rounding drift names a cycle whose product is not
    below 1."""
    rng = np.random.default_rng(22)
    steps = 20  # below every agent's dt bound with up to five neighbors
    seen = collections.Counter()
    for _ in range(400):
        neighbors, mu = random_coupling(rng)
        model = make_model(consensus_doc(neighbors))
        probe = wellposed.DiscretizationParams(
            dt=model.horizon / steps, steps=steps,
            lam=dict.fromkeys(model.agent_ids, wellposed.DEFAULT_LAMBDA), mu=mu,
            d_max={}, margin=wellposed.DEFAULT_MARGIN,
        )
        violations = oracles.check_cycles(model, probe)
        replay = replayed_dmax(model, probe)
        try:
            params = wellposed.synthesize(model, mu=mu, steps=steps)
        except InfeasibleError as e:
            message = str(e)
        else:
            assert violations == [] and params.d_max == replay
            seen["feasible"] += 1
            continue
        if "collapsed" in message:
            assert 0.0 in mu.values()
            assert violations or 0.0 in replay.values()
            seen["collapsed"] += 1
        elif message.endswith("< 1"):
            assert message in violations
            seen["cycle"] += 1
        else:
            named = [
                c for c in oracles._simple_cycles(model.edges(), model.agent_ids)
                if message.startswith(f"cycle {c}: ")
            ]
            product = re.fullmatch(r"cycle .*: mu product (\S+) yet rounding .*", message)
            assert len(named) == 1 and float(product[1]) >= 1
            seen["drift"] += 1
    assert sorted(seen) == ["collapsed", "cycle", "drift", "feasible"], seen


def counted_edges(model):
    """The calls made to ``model.edges``, counted from now on."""
    calls = []
    edges = model.edges

    def counted():
        calls.append(None)
        return edges()

    model.edges = counted
    return calls


def test_twelve_coupled_agents_decide_in_at_most_n_passes():
    """All-to-all coupling of 12 agents has 119,481,284 simple cycles.
    Each propagation pass reads ``model.edges()`` once; besides them,
    synthesize reads it for the default gains and check_params once."""
    n = 12
    model = make_model(all_to_all_doc(n))
    calls = counted_edges(model)
    params = wellposed.synthesize(model)
    assert len(set(params.d_max.values())) == 1
    assert len(calls) <= n + 2
    del calls[:]
    with pytest.raises(InfeasibleError) as err:
        wellposed.synthesize(model, mu={(1, 2): 0.5})
    assert re.fullmatch(r"cycle \(1, 2(, \d+)*\): mu product 0.5 < 1", str(err.value))
    assert len(calls) <= n + 1
