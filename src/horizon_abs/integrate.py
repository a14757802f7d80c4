"""Fixed-step classical RK4 with dense cubic-Hermite output.

Adaptive steppers are deliberately avoided: a fixed grid keeps every
trajectory bit-reproducible across runs, which the artifact contract
relies on.  Accuracy is audited after the fact by a step-halving
Richardson estimate instead of being controlled online.
"""

import math

import numpy as np

from .errors import IntegrationError, ModelError

DEFAULT_SUBSTEPS = 100
DEFAULT_INTEG_TOL = 1e-8


def check_settings(substeps, integ_tol, names):
    """The integrator settings if substeps is an integer >= 1 and integ_tol
    a finite number > 0; otherwise a ModelError naming the bad one by
    ``names``, a pair of labels for the two values."""
    if type(substeps) is not int or substeps < 1:
        raise ModelError(f"{names[0]} must be an integer >= 1, got {substeps!r}")
    if type(integ_tol) not in (int, float) or not 0 < integ_tol < math.inf:
        raise ModelError(f"{names[1]} must be a finite number > 0, got {integ_tol!r}")
    return substeps, float(integ_tol)


def _run(rhs, y0, dt, substeps, dense):
    """The RK4 loop of rk4_endpoint and, with dense, rk4_dense.

    Stage s of a step writes into K[:, s] of one block K shaped (width, 4)
    + y.shape.  A plain ``rhs(t, y)`` returns its slope, kept in K[0, s].
    An rhs with an int ``width`` is called as ``rhs(t, y, K[:, s])`` and
    writes its slope to K[0, s] and whatever else it keeps to K[1:, s].
    ``rhs.step(K)``, if present, runs after each step and after rk4_dense's
    last derivative call, which rewrites K[:, 0] only."""
    y = np.array(y0, dtype=float)
    h = dt / substeps
    stage, width, step = rhs, getattr(rhs, "width", 1), getattr(rhs, "step", lambda K: None)
    if not hasattr(rhs, "width"):
        def stage(t, y, out):
            out[0] = rhs(t, y)
    # the step's factors as 0-d arrays, which numpy does not convert on every call
    half, full, sixth, two = (np.array(c) for c in (h / 2, h, h / 6, 2.0))
    K = np.empty((width, 4) + y.shape)
    (k1, k2, k3, k4), (o1, o2, o3, o4) = K[0], (K[:, s] for s in range(4))
    ts = np.linspace(0.0, dt, substeps + 1)
    ys, ds = np.empty((2, substeps + 1) + y.shape) if dense else (None, None)
    for j, t in enumerate(ts[:-1].tolist() if dense else [k * h for k in range(substeps)]):
        stage(t, y, o1)
        stage(t + h / 2, y + half * k1, o2)
        stage(t + h / 2, y + half * k2, o3)
        stage(t + h, y + full * k3, o4)
        step(K)
        if dense:
            ys[j], ds[j] = y, k1
        y = y + sixth * (k1 + two * k2 + two * k3 + k4)
    if not dense:
        return y
    stage(float(ts[-1]), y, o1)
    step(K)
    ys[-1], ds[-1] = y, k1
    return DenseTrajectory(ts, ys, ds)


def rk4_endpoint(rhs, y0, dt, substeps):
    """Endpoint of y' = rhs(t, y) on [0, dt], rhs in a form of ``_run``;
    y0 may carry leading batch axes."""
    return _run(rhs, y0, dt, substeps, dense=False)


class DenseTrajectory:
    """Node values plus derivatives on a uniform grid, interpolated cubically."""

    def __init__(self, ts, ys, ds):
        self.ts = ts
        self.ys = ys
        self.ds = ds

    @property
    def endpoint(self):
        return self.ys[-1]

    def _weights(self, t):
        """The node k below t and the Hermite weights of ys[k], ds[k],
        ys[k + 1] and ds[k + 1] at t (the derivative weights times h)."""
        ts = self.ts
        if not -1e-12 <= t <= ts[-1] + 1e-12:
            raise IntegrationError(f"t={t} outside [0, {ts[-1]}]")
        h = ts[1] - ts[0]
        k = min(int(max(t, 0.0) / h), len(ts) - 2)
        s = (t - ts[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return k, h00, h10 * h, h01, h11 * h

    def eval(self, t):
        k, a, b, c, d = self._weights(t)
        return a * self.ys[k] + b * self.ds[k] + c * self.ys[k + 1] + d * self.ds[k + 1]

    def eval_many(self, times):
        """``eval`` at every time, stacked along a new leading axis.

        The weights are computed per time as in ``eval``, so each slice
        has the bits of the single call."""
        k, a, b, c, d = (np.array(w) for w in zip(*map(self._weights, times)))
        a, b, c, d = (w.reshape((len(k),) + (1,) * (self.ys.ndim - 1)) for w in (a, b, c, d))
        return a * self.ys[k] + b * self.ds[k] + c * self.ys[k + 1] + d * self.ds[k + 1]


def stage_times(dt, substeps, dense=False):
    """Every time at which rk4_dense (dense=True) or rk4_endpoint calls rhs,
    computed as they compute it."""
    h = dt / substeps
    if dense:
        ts = np.linspace(0.0, dt, substeps + 1)
        starts, last = ts[:-1], ts[-1:]
    else:
        starts, last = np.arange(substeps) * h, np.empty(0)
    return np.concatenate((starts, starts + h / 2, starts + h, last))


def rk4_dense(rhs, y0, dt, substeps):
    """Integrate and keep every node with its derivative for interpolation."""
    return _run(rhs, y0, dt, substeps, dense=True)


def check_audit(coarse, fine, integ_tol, what="integration", runs=None):
    """Step-halving Richardson estimate of the error of ``coarse``, a
    substeps-step RK4 endpoint, from ``fine``, the same run's endpoint at
    twice the substeps.

    Halving the step scales the RK4 global error roughly 16-fold, so the
    error of the run we actually return (the coarse one) is about 16/15
    of the coarse-fine endpoint gap.  The estimate is taken per row over
    the last axis, so a batch of independent states with any leading axes
    gets one estimate per row, in the batch's shape (a float for a single
    state).

    Raises IntegrationError when an endpoint is not finite or an estimate
    exceeds ``integ_tol``; ``what`` names the run in that error.  A
    callable ``what`` names the runs along the first axis instead: the
    error is the one of the lowest failing run k, named ``what(k)``, with
    that run's worst estimate.  ``runs`` gives the run of each row along
    the first axis when a run spans several rows (default: row k is run k).
    """
    finite = np.isfinite(coarse) & np.isfinite(fine)
    # a non-finite row's estimate is never judged, only its finiteness
    with np.errstate(invalid="ignore"):
        err = np.max(np.abs(coarse - fine), axis=-1) * (16.0 / 15.0)
    if callable(what):
        failed = ~np.all(finite, axis=-1) | (err > integ_tol)
        failed = failed.reshape(len(failed), -1).any(axis=1)
        if np.any(failed):
            runs = np.arange(len(failed)) if runs is None else np.asarray(runs)
            k = int(np.min(runs[failed]))
            _raise_if_failed(finite[runs == k], err[runs == k], integ_tol, what(k))
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
