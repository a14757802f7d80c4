import math

import numpy as np
import pytest

import oracles
from horizon_abs import model as model_mod
from horizon_abs import reach
from horizon_abs.errors import ModelError

from conftest import FIVE_AGENTS, make_model, pair_doc


def family(base_radius=2.0, c_rate=1.5, tau=0.3, T=1.0):
    return reach.ReachFamily(
        agent_id=1,
        base=reach.Ball(np.array([0.5, -0.5]), base_radius),
        c_rate=c_rate,
        tau=tau,
        T=T,
    )


def test_ball_contains_with_slack():
    b = reach.Ball(np.zeros(2), 1.0)
    assert b.contains([1.0, 0.0])
    assert not b.contains([1.0 + 1e-6, 0.0])
    assert b.contains([1.0 + 1e-6, 0.0], slack=1e-5)
    hits = b.contains(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert list(hits) == [True, False]
    with pytest.raises(ModelError):
        reach.Ball(np.zeros(2), -0.1)


def test_growth_is_linear_in_duration():
    fam = family()
    rng = np.random.default_rng(0)
    for _ in range(100):
        s1, s2 = rng.uniform(0, 2, size=2)
        assert reach.c_i(fam, s1) == pytest.approx(fam.c_rate * s1)
        assert reach.c_i(fam, s1 + s2) == pytest.approx(
            reach.c_i(fam, s1) + reach.c_i(fam, s2)
        )
    with pytest.raises(ModelError):
        reach.c_i(fam, -1e-9)


def test_reach_at_endpoints_and_domain():
    fam = family()
    lo = fam.T - fam.tau
    assert reach.reach_at(fam, lo).radius == fam.base.radius
    assert reach.reach_at(fam, fam.T).radius == pytest.approx(
        fam.base.radius + fam.c_rate * fam.tau
    )
    np.testing.assert_array_equal(reach.reach_at(fam, fam.T).center, fam.base.center)
    for t in (lo - 1e-9, fam.T + 1e-9):
        with pytest.raises(ModelError):
            reach.reach_at(fam, t)


def test_radius_identity_over_random_families():
    """Growing to t and then topping up by c*(T-t) lands exactly on R([0,T])."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        T = rng.uniform(0.5, 3.0)
        tau = T * rng.uniform(0.1, 0.9)
        fam = reach.ReachFamily(
            agent_id=1,
            base=reach.Ball(rng.normal(size=2), rng.uniform(0.1, 10.0)),
            c_rate=rng.uniform(0.0, 20.0),
            tau=tau,
            T=T,
        )
        t = rng.uniform(T - tau, T)
        lhs = reach.reach_at(fam, t).radius + reach.c_i(fam, T - t)
        rhs = reach.reach_at(fam, T).radius
        assert abs(lhs - rhs) <= math.ulp(rhs)


def test_monotone_nesting():
    fam = family()
    ts = np.linspace(fam.T - fam.tau, fam.T, 20)
    radii = [reach.reach_at(fam, t).radius for t in ts]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_inner_region():
    fam = family()
    inner = reach.inner_region(fam, 0.1)
    assert inner.radius == pytest.approx(fam.base.radius + fam.c_rate * (fam.tau - 0.1))
    with pytest.raises(ModelError):
        reach.inner_region(fam, fam.tau)
    with pytest.raises(ModelError):
        reach.inner_region(fam, 0.0)


def test_minkowski_sum_is_exact_radius_addition():
    b = reach.Ball(np.array([1.0, 2.0]), 0.75)
    out = oracles.minkowski_ball_sum(b, 0.3)
    assert out.radius == 0.75 + 0.3
    np.testing.assert_array_equal(out.center, b.center)
    with pytest.raises(ModelError):
        oracles.minkowski_ball_sum(b, -0.1)


def test_pair_model_families():
    model = make_model(pair_doc())
    fam = model_mod.reach_family(model, 2)
    assert fam.base.radius == 4.0
    assert fam.c_rate == pytest.approx(6.0)  # M + v_max
    assert reach.reach_at(fam, model.horizon).radius == pytest.approx(4.0 + 6.0 * 0.3)


def test_five_agent_region_radii():
    with open(FIVE_AGENTS) as fh:
        model = model_mod.parse_model(fh.read())
    fam3 = model_mod.reach_family(model, 3)
    assert fam3.base.radius == pytest.approx(8.75)
    assert fam3.c_rate == pytest.approx(5.0)
    assert reach.reach_at(fam3, 2.0).radius == pytest.approx(10.0)
    assert reach.inner_region(fam3, 1.0 / 6.0).radius == pytest.approx(55.0 / 6.0)
