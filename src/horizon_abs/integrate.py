"""Fixed-step classical RK4 with dense cubic-Hermite output.

Adaptive steppers are deliberately avoided: a fixed grid keeps every
trajectory bit-reproducible across runs, which the artifact contract
relies on.  Accuracy is audited after the fact by a step-halving
Richardson estimate instead of being controlled online.
"""

import numpy as np

from .errors import IntegrationError

DEFAULT_SUBSTEPS = 100
DEFAULT_INTEG_TOL = 1e-8


def _rk4_step(rhs, t, y, h):
    """One classical RK4 step: the stage-1 slope and the state at t + h."""
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + (h / 2) * k1)
    k3 = rhs(t + h / 2, y + (h / 2) * k2)
    k4 = rhs(t + h, y + h * k3)
    return k1, y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_endpoint(rhs, y0, dt, substeps):
    """Endpoint of y' = rhs(t, y) on [0, dt]; y0 may carry leading batch axes."""
    y = np.array(y0, dtype=float)
    h = dt / substeps
    for k in range(substeps):
        _, y = _rk4_step(rhs, k * h, y, h)
    return y


class DenseTrajectory:
    """Node values plus derivatives on a uniform grid, interpolated cubically."""

    def __init__(self, ts, ys, ds):
        self.ts = ts
        self.ys = ys
        self.ds = ds

    @property
    def endpoint(self):
        return self.ys[-1]

    @property
    def dt(self):
        return float(self.ts[-1])

    def eval(self, t):
        ts = self.ts
        if not -1e-12 <= t <= ts[-1] + 1e-12:
            raise IntegrationError(f"t={t} outside [0, {ts[-1]}]")
        h = ts[1] - ts[0]
        k = min(int(max(t, 0.0) / h), len(ts) - 2)
        s = (t - ts[k]) / h
        y0, y1 = self.ys[k], self.ys[k + 1]
        d0, d1 = self.ds[k], self.ds[k + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def rk4_dense(rhs, y0, dt, substeps):
    """Integrate and keep every node with its derivative for interpolation."""
    y = np.array(y0, dtype=float)
    h = dt / substeps
    ts = np.linspace(0.0, dt, substeps + 1)
    ys = np.empty((substeps + 1,) + y.shape)
    ds = np.empty_like(ys)
    ys[0] = y
    for k in range(substeps):
        ds[k], y = _rk4_step(rhs, ts[k], y, h)
        ys[k + 1] = y
    ds[substeps] = rhs(ts[-1], y)
    return DenseTrajectory(ts, ys, ds)


def check_audit(rhs, y0, dt, substeps, integ_tol, what="integration", coarse=None):
    """Step-halving Richardson estimate of the substeps-step endpoint error.

    Halving the step scales the RK4 global error roughly 16-fold, so the
    error of the run we actually return (the coarse one) is about 16/15
    of the coarse-fine endpoint gap.  Pass ``coarse`` when the caller
    already holds the substeps-step endpoint.  The estimate is taken per
    row over the last axis, so a batch of independent states with any
    leading axes gets one estimate per row, in the batch's shape (a float
    for a single state).

    Raises IntegrationError when an endpoint is not finite or an estimate
    exceeds ``integ_tol``; ``what`` names the run in that error.  A
    callable ``what`` names the runs along the first axis instead: the
    error is the one of the lowest failing run k, named ``what(k)``, with
    that run's worst estimate.
    """
    if coarse is None:
        coarse = rk4_endpoint(rhs, y0, dt, substeps)
    fine = rk4_endpoint(rhs, y0, dt, 2 * substeps)
    finite = np.isfinite(coarse) & np.isfinite(fine)
    # a non-finite row's estimate is never judged, only its finiteness
    with np.errstate(invalid="ignore"):
        err = np.max(np.abs(coarse - fine), axis=-1) * (16.0 / 15.0)
    if callable(what):
        failed = ~np.all(finite, axis=-1) | (err > integ_tol)
        if np.any(failed):
            k = int(np.argmax(failed.reshape(len(failed), -1).any(axis=1)))
            _raise_if_failed(finite[k], err[k], integ_tol, what(k))
    else:
        _raise_if_failed(finite, err, integ_tol, what)
    return err if err.ndim else float(err)


def _raise_if_failed(finite, err, integ_tol, what):
    if not np.all(finite):
        raise IntegrationError(f"{what} audit: the integrated endpoint is not finite")
    worst = float(np.max(err))
    if worst > integ_tol:
        raise IntegrationError(
            f"{what} audit: step-halving estimate {worst:.3e} exceeds "
            f"tolerance {integ_tol:.3e}; raise substeps"
        )
