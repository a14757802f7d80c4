import math
import re
import warnings

import numpy as np
import pytest

from horizon_abs import integrate
from horizon_abs.errors import IntegrationError


def test_rk4_matches_exact_linear_solution():
    """y' = a y has the exact solution y0*exp(a t)."""
    a = -1.7

    def rhs(t, y):
        return a * y

    y = integrate.rk4_endpoint(rhs, np.array([2.0]), 1.0, 200)
    assert y[0] == pytest.approx(2.0 * math.exp(a), abs=1e-10)


def test_rk4_fourth_order_convergence():
    def rhs(t, y):
        return np.sin(t) * y

    exact = math.exp(1 - math.cos(2.0))
    errs = []
    for substeps in (8, 16, 32):
        y = integrate.rk4_endpoint(rhs, np.array([1.0]), 2.0, substeps)
        errs.append(abs(y[0] - exact))
    rate1 = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert 3.7 <= rate1 <= 4.3
    assert 3.7 <= rate2 <= 4.3


def test_rk4_batched_rows_agree_with_scalar_runs():
    def rhs(t, y):
        return -y + t

    Y0 = np.array([[1.0, 0.0], [0.5, -2.0], [3.0, 3.0]])
    batched = integrate.rk4_endpoint(rhs, Y0, 0.7, 40)
    for row in range(3):
        single = integrate.rk4_endpoint(rhs, Y0[row], 0.7, 40)
        np.testing.assert_array_equal(batched[row], single)


def test_dense_trajectory_interpolation_accuracy():
    def rhs(t, y):
        return np.array([math.cos(t) * y[0]])

    traj = integrate.rk4_dense(rhs, np.array([1.0]), 1.5, 60)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1.5, size=50):
        exact = math.exp(math.sin(t))
        assert traj.eval(t)[0] == pytest.approx(exact, abs=1e-6)
    np.testing.assert_array_equal(traj.eval(0.0), traj.ys[0])
    np.testing.assert_array_equal(traj.eval(1.5), traj.endpoint)
    assert traj.ts[-1] == pytest.approx(1.5)
    with pytest.raises(IntegrationError):
        traj.eval(1.5 + 1e-6)
    with pytest.raises(IntegrationError):
        traj.eval(-1e-6)


def test_dense_nodes_match_endpoint_integration():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    dense = integrate.rk4_dense(rhs, np.array([1.0, 0.0]), 2.0, 64)
    endpoint = integrate.rk4_endpoint(rhs, np.array([1.0, 0.0]), 2.0, 64)
    np.testing.assert_array_equal(dense.endpoint, endpoint)


def audit(rhs, y0, dt, substeps, integ_tol, **kwargs):
    """check_audit of the substeps-step endpoint run of rhs from y0."""
    return integrate.check_audit(
        integrate.rk4_endpoint(rhs, y0, dt, substeps),
        integrate.rk4_endpoint(rhs, y0, dt, 2 * substeps), integ_tol, **kwargs,
    )


def test_audit_tracks_true_error():
    """The Richardson estimate must bracket the coarse-run endpoint error."""

    def rhs(t, y):
        return np.array([math.exp(t) * math.sin(5 * t)])

    substeps = 12
    coarse = integrate.rk4_endpoint(rhs, np.array([0.0]), 1.0, substeps)
    truth = integrate.rk4_endpoint(rhs, np.array([0.0]), 1.0, 4096)
    actual = abs(coarse[0] - truth[0])
    estimate = audit(rhs, np.array([0.0]), 1.0, substeps, math.inf)
    assert 0.5 * actual <= estimate <= 2.0 * actual


def test_check_audit_raises_and_returns():
    def rhs(t, y):
        return np.array([math.exp(t) * math.sin(5 * t)])

    err = audit(rhs, np.array([0.0]), 1.0, 200, 1e-6, what="probe")
    assert err <= 1e-6
    with pytest.raises(IntegrationError, match="probe"):
        audit(rhs, np.array([0.0]), 1.0, 4, 1e-12, what="probe")
    # a dense run's last node is the endpoint run's, so it gives the same estimate
    fine = integrate.rk4_endpoint(rhs, np.array([0.0]), 1.0, 400)
    coarse = integrate.rk4_dense(rhs, np.array([0.0]), 1.0, 200).endpoint
    assert integrate.check_audit(coarse, fine, 1e-6) == err
    coarse = integrate.rk4_dense(rhs, np.array([0.0]), 1.0, 4).endpoint
    fine = integrate.rk4_endpoint(rhs, np.array([0.0]), 1.0, 8)
    with pytest.raises(IntegrationError, match="probe"):
        integrate.check_audit(coarse, fine, 1e-12, what="probe")


def test_check_audit_is_per_row():
    def rhs(t, y):
        return np.stack([np.exp(t) * np.sin(5 * t) + 0 * y[..., 0], 0 * y[..., 1]], axis=-1)

    err = audit(rhs, np.zeros((3, 2)), 1.0, 200, 1e-6)
    single = audit(rhs, np.zeros(2), 1.0, 200, 1e-6)
    assert err.shape == (3,) and np.all(err == single)


def test_check_audit_on_a_batch_equals_row_by_row_calls():
    """An (m, N, n) batch gets (m, N) estimates, each equal to its row's own."""

    def rhs(t, y):
        return np.sin(3 * t) * np.cos(y) + 0.5 * y

    Y0 = np.random.default_rng(0).uniform(-1, 1, size=(4, 3, 2))
    err = audit(rhs, Y0, 1.0, 20, 1e-3)
    assert err.shape == (4, 3)
    for k in range(4):
        assert np.array_equal(err[k], audit(rhs, Y0[k], 1.0, 20, 1e-3))
        for a in range(3):
            assert err[k, a] == audit(rhs, Y0[k, a], 1.0, 20, 1e-3)


def test_check_audit_names_the_lowest_failing_run():
    """A callable ``what`` names runs along the first axis: the error is
    the lowest failing run's, with that run's worst estimate."""
    rates = np.array([0.5, 4.0, 0.5, 6.0])[:, None, None]

    def rhs(t, y):
        return rates * y

    def what(k):
        return f"run {k}"

    y0 = np.ones((4, 2, 1))
    err = audit(rhs, y0, 1.0, 8, math.inf, what=what)
    worst = err.max(axis=1)
    assert worst[0] == worst[2] < worst[1] < worst[3]
    exceeds = re.escape(f"run 1 audit: step-halving estimate {worst[1]:.3e} exceeds")
    with pytest.raises(IntegrationError, match="^" + exceeds):
        audit(rhs, y0, 1.0, 8, float(worst[0]), what=what)
    # run 3's non-finite endpoints come after run 1's estimate; alone they fail
    rates[3] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="^" + exceeds):
            audit(rhs, y0, 1.0, 8, float(worst[0]), what=what)
        with pytest.raises(IntegrationError, match="^run 3 audit: the integrated endpoint is not finite"):
            audit(rhs, y0, 1.0, 8, math.inf, what=what)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_audit_rejects_non_finite_endpoints(bad):
    def rhs(t, y):
        return np.full_like(y, bad)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="probe audit: .* not finite"):
            audit(rhs, np.array([0.0]), 1.0, 4, 1e-6, what="probe")


def test_reproducibility_is_bitwise():
    def rhs(t, y):
        return np.sin(y) + t

    a = integrate.rk4_endpoint(rhs, np.array([0.3, 0.4]), 1.0, 100)
    b = integrate.rk4_endpoint(rhs, np.array([0.3, 0.4]), 1.0, 100)
    assert a.tobytes() == b.tobytes()
