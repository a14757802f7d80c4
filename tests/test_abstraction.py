"""Per-agent transition systems: Post sets, batching and actions."""

import numpy as np
import pytest

import oracles
from horizon_abs import abstraction as abstraction_mod
from horizon_abs import controller, grid, reach
from horizon_abs.errors import InfeasibleError, IntegrationError, ModelError

from conftest import heterogeneous_doc, make_stack, pair_doc, ring_stack


def pair_config(ab):
    own = grid.locate(ab.decs[2], ab.model.agent(2).x0)
    nbr = grid.locate(ab.decs[1], ab.model.agent(1).x0)
    return (own, nbr)


def initiating_configs(ab, count):
    """The first few follower configurations over the leader's start cell."""
    nbr = grid.locate(ab.decs[1], ab.model.agent(1).x0)
    cells = sorted(ab.decs[2].initiating_set)[:count]
    return [(own, nbr) for own in cells]


def test_post_nonempty_and_memoized(pair_stack):
    _, _, ab = pair_stack
    config = pair_config(ab)
    post = ab.post(2, config)
    assert post and isinstance(post, tuple)
    assert all(cell in ab.decs[2].index_set for cell in post)
    assert ab.post(2, config) is post  # cache hit


def test_post_is_the_endpoint_ball_intersection(pair_stack):
    _, _, ab = pair_stack
    dec = ab.decs[2]
    for config in initiating_configs(ab, 6):
        endpoint = ab.endpoint(2, config)
        (cells,) = grid.cells_intersecting_ball(dec, [endpoint], ab.radius(2))
        assert ab.post(2, config) == tuple(cells)


def test_endpoint_ball_stays_inside_the_region(pair_stack):
    _, _, ab = pair_stack
    dec = ab.decs[2]
    for config in initiating_configs(ab, 12):
        endpoint = ab.endpoint(2, config)
        gap = np.linalg.norm(endpoint - dec.region.center)
        assert gap + ab.radius(2) <= dec.region.radius + 1e-9


def test_understated_region_is_rejected_at_post_time(pair_stack):
    model, params, ab = pair_stack
    # a family whose promised region cannot absorb one transition's motion
    fam2 = reach.ReachFamily(
        agent_id=2,
        base=reach.Ball(model.agent(2).x0, 0.2),
        c_rate=0.1,
        tau=model.tau,
        T=model.horizon,
    )
    dec2 = grid.build_decomposition(fam2, 0.1, params.dt)
    broken = abstraction_mod.Abstraction(
        model, params,
        families={1: ab.families[1], 2: fam2},
        decs={1: ab.decs[1], 2: dec2},
    )
    own = grid.locate(dec2, model.agent(2).x0)
    nbr = grid.locate(ab.decs[1], model.agent(1).x0)
    with pytest.raises(InfeasibleError, match="leaves the reachable region"):
        broken.post(2, (own, nbr))


def test_radius_matches_the_parameter_ball(pair_stack):
    model, params, ab = pair_stack
    for i in (1, 2):
        expect = controller.r_i(params.lam[i], params.dt, model.agent(i).v_max)
        assert ab.radius(i) == expect


def test_non_initiating_configuration_rejected(pair_stack):
    _, _, ab = pair_stack
    dec = ab.decs[2]
    rim = sorted(dec.index_set - dec.initiating_set)[0]
    with pytest.raises(ModelError, match="not transition-initiating"):
        ab.post(2, (rim, pair_config(ab)[1]))


@pytest.mark.parametrize("call", [
    lambda ab, config: ab.post(2, config),
    lambda ab, config: ab.post_many(2, [config]),
    lambda ab, config: ab.endpoint(2, config),
    lambda ab, config: ab.reference_for([(2, config)]),
], ids=["post", "post_many", "endpoint", "reference_for"])
def test_a_non_initiating_configuration_caches_nothing(call):
    """Initiation is checked where an endpoint enters the cache, so every
    entry point rejects a rim configuration before it integrates."""
    _, _, ab = make_stack(pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    dec = ab.decs[2]
    rim = sorted(dec.index_set - dec.initiating_set)[0]
    config = (rim, pair_config(ab)[1])
    with pytest.raises(ModelError, match=r"agent 2: configuration .* is not transition-initiating"):
        call(ab, config)
    assert not ab._endpoint_cache and not ab._post_cache and ab._references is None


def test_post_many_names_the_lowest_non_initiating_configuration(pair_stack):
    _, _, ab = pair_stack
    dec = ab.decs[2]
    nbr = pair_config(ab)[1]
    rims = sorted(dec.index_set - dec.initiating_set)[:2]
    configs = [(rims[1], nbr), pair_config(ab), (rims[0], nbr)]
    with pytest.raises(ModelError) as err:
        ab.post_many(2, configs)
    assert str(err.value) == (
        f"agent 2: configuration {(rims[0], nbr)} is not transition-initiating"
    )


def test_config_arity_checked(pair_stack):
    _, _, ab = pair_stack
    own = pair_config(ab)[0]
    with pytest.raises(ModelError, match="configuration needs"):
        oracles.config_refs(ab, 2, (own,))


def test_successor_action_realizes_each_target(pair_stack):
    _, _, ab = pair_stack
    dec = ab.decs[2]
    config = pair_config(ab)
    endpoint = ab.endpoint(2, config)
    for target in ab.post(2, config):
        action = ab.successor_action(2, config, target)
        assert action.target == target and action.config == config
        assert oracles.cell_contains(dec, target, action.point)
        assert dec.region.contains(action.point)
        assert np.linalg.norm(action.point - endpoint) <= ab.radius(2) * (1 + 1e-12)
        # the closed form sends the reference endpoint exactly there
        assert np.allclose(endpoint + ab.params.lam[2] * ab.params.dt * action.w,
                           action.point, rtol=1e-12, atol=1e-12)


def test_successor_action_rejects_non_successor(pair_stack):
    _, _, ab = pair_stack
    config = pair_config(ab)
    post = set(ab.post(2, config))
    outside = sorted(ab.decs[2].index_set - post)[0]
    with pytest.raises(ModelError, match="is not a successor"):
        ab.successor_action(2, config, outside)


def test_rebuild_reproduces_posts_and_endpoints(pair_stack):
    model, params, ab = pair_stack
    fresh = abstraction_mod.build_abstraction(model, params)
    for config in initiating_configs(ab, 8):
        assert fresh.post(2, config) == ab.post(2, config)
        assert np.array_equal(fresh.endpoint(2, config), ab.endpoint(2, config))


def spread_configs(ab, agent_id, count):
    """Up to count initiating configurations: own cells spread over the
    initiating set, each neighbor in an initiating cell near its start."""
    agent = ab.model.agent(agent_id)
    own_cells = sorted(ab.decs[agent_id].initiating_set)
    own_cells = own_cells[:: max(1, len(own_cells) // count)][:count]
    nbr_cells = []
    for j in agent.neighbors:
        dec = ab.decs[j]
        start = grid.reference_point(dec, grid.locate(dec, ab.model.agent(j).x0))
        # the cell breaks ties in distance
        near = sorted(
            dec.initiating_set,
            key=lambda c: (float(np.sum((grid.reference_point(dec, c) - start) ** 2)), c),
        )[:3]
        nbr_cells.append(near)
    return [
        (own,) + tuple(near[(r + s) % len(near)] for s, near in enumerate(nbr_cells))
        for r, own in enumerate(own_cells)
    ]


@pytest.mark.parametrize("stack", ["ring", "heterogeneous"])
def test_batched_posts_match_single_configuration_posts(stack):
    if stack == "ring":
        model, params, ab = ring_stack(seed=1)
    else:
        model, params, ab = make_stack(heterogeneous_doc(), steps=4)
    for i in model.agent_ids:
        configs = spread_configs(ab, i, 12)
        assert len(configs) > 1
        batched = ab.post_many(i, configs)
        for config, post in zip(configs, batched):
            single = abstraction_mod.Abstraction(model, params, ab.families, ab.decs)
            assert single.post_many(i, [config]) == [post]
            assert np.array_equal(single.endpoint(i, config), ab.endpoint(i, config))


def test_non_finite_endpoint_is_an_integration_error(monkeypatch):
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {
        "type": "expression",
        "exprs": ["exp(1000*x_i[1]) - exp(1000*x_i[1])", "0"],
    }
    model, _, ab = make_stack(doc, lam={1: 0.55, 2: 0.55}, steps=5)

    def never(dec, centers, radius):
        raise AssertionError("a non-finite endpoint reached the ball-cell intersection")

    monkeypatch.setattr(grid, "cells_intersecting_ball", never)
    # exp overflows only where x_1 > 0.7: at the follower's start, not in
    # the far corner of its grid, so one row of the batch is not finite
    start = pair_config(ab)
    configs = initiating_configs(ab, 3) + [start]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as err:
            ab.post_many(2, configs)
    assert str(err.value) == (
        f"agent 2: the reference endpoint of configuration {start} is not finite"
    )


def test_summary_counts(pair_stack):
    _, _, ab = pair_stack
    ab.post(2, pair_config(ab))
    info = ab.summary()
    assert set(info) == {1, 2}
    for i in (1, 2):
        dec = ab.decs[i]
        assert info[i]["cells"] == len(dec.index_set)
        assert info[i]["initiating"] == len(dec.initiating_set)
        cached = [c for (aid, c) in ab._post_cache if aid == i]
        assert info[i]["configurations"] == len(cached)
        if cached:
            assert info[i]["mean_post"] > 0
