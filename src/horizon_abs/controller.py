"""Saturated reference dynamics and the transition feedback law.

A transition is specified by a cell configuration (own cell plus the
neighbors' cells), a free parameter w in the ball of radius v_max, and
the initial state inside the own cell.  The feedback law cancels the
own dynamics against a reference trajectory driven by frozen neighbor
reference points, steers toward the reference endpoint shifted by
lambda*w*t, and corrects the initial cell offset.  This module solves
the references and evaluates the law; the closed loop (sim) applies it.
"""

import functools

import numpy as np

from . import integrate, model as model_mod
from .errors import HorizonError, ModelError


def r_i(lam, dt, v_max):
    return lam * dt * v_max


class ReferenceTrajectory:
    """One reference, or a batch of them along the leading axes of its arrays."""

    def __init__(self, own_ref, nbr_refs, traj, audit_err):
        self.own_ref = own_ref
        self.nbr_refs = nbr_refs
        self.traj = traj
        self.audit_err = audit_err

    def eval(self, t):
        return self.traj.eval(t)


def _saturated(field):
    """The right-hand side g = saturate(f, M) of a field's rows."""
    return lambda t, y: model_mod.saturate(field(y), field.M)


def _with_step(rhs, step):
    """rhs with ``step(K)`` after each step of integrate._run, as a partial: no frame added."""
    out = functools.update_wrapper(functools.partial(rhs), rhs)
    out.step = step
    return out


def raw_run(run, rhs, bounds, y0, dt, substeps):
    """``run`` (integrate.rk4_endpoint or integrate.rk4_dense) with no
    stage saturated, and the rows whose result that left unchanged.

    ``rhs`` is in a form of integrate._run.  The saturated run clips the
    last len(bounds) arrays it writes per stage (a plain rhs: its slope),
    the k-th at ``bounds[k]`` (a number, or a column over the rows).  A
    running max of their magnitudes, taken once per step over the stage
    block, is tested per row by ``model.within_bound`` after the run.
    ``ok``, one entry per row of y0, holds where every test passed and the
    endpoint is finite: no stage of the row could have been clipped, so its
    result has the bits of the saturated run.  The run raises no numpy
    warning, and a HorizonError in it (at a state only the unclipped run
    reaches) fails every row, with no result."""
    watched = len(bounds)
    top = np.zeros((watched, 4) + np.shape(y0))

    def step(K):
        np.maximum(top, np.abs(K[-watched:]), out=top)

    with np.errstate(all="ignore"):
        try:
            out = run(_with_step(rhs, step), y0, dt, substeps)
        except HorizonError:
            return None, np.zeros(np.shape(y0)[:-1], dtype=bool)
    endpoint = out.endpoint if isinstance(out, integrate.DenseTrajectory) else out
    ok = np.all(np.isfinite(endpoint), axis=-1)
    for row_top, bound in zip(np.max(top, axis=(1, -1)), bounds):
        ok &= model_mod.within_bound(row_top[..., None], endpoint.shape[-1], bound)[..., 0]
    return out, ok


def checked_run(run, rhs, exact, bounds, y0, dt, substeps):
    """``run`` of independent rows along y0's first axis, with the bits of
    the saturated run: raw_run first, then only the rows it failed run
    again on ``exact(index)``, the saturated right-hand side of the rows
    at ``index``.  If the raw run or that re-run raises, every row runs
    on ``exact(slice(None))``, which raises or returns what the saturated
    run of the whole batch does."""
    y0 = np.asarray(y0, dtype=float)
    out, ok = raw_run(run, rhs, bounds, y0, dt, substeps)
    if out is not None:
        bad = np.flatnonzero(~np.all(ok, axis=tuple(range(1, ok.ndim))))
        if not bad.size:
            return out
        try:
            redo = run(exact(bad), y0[bad], dt, substeps)
        except HorizonError:
            out = None
    if out is None:
        return run(exact(slice(None)), y0, dt, substeps)
    if isinstance(out, integrate.DenseTrajectory):
        out.ys[:, bad], out.ds[:, bad] = redo.ys, redo.ds
    else:
        out[bad] = redo
    return out


def audit_names(name, rerun, labels, agents=None):
    """The ``what`` of integrate.check_audit for runs named ``name(k)``.

    Only when run k fails is it run again, raw (``rerun(k)`` gives its
    rhs, bounds, y0, dt and substeps as raw_run takes them, for
    rk4_endpoint).  If a watched array's norm, labelled by ``labels``,
    then passed its bound, the name ends in the largest ratio, as
    " (agent i: label up to x)"; ``agents`` are the agents along the
    arrays' last axis (None: the one agent ``name`` names).
    """

    @functools.wraps(name)
    def what(k):
        rhs, bounds, y0, dt, substeps = rerun(k)
        # a norm NaN at every stage stays -inf, which, like NaN, is never over 1
        tops = np.full((len(bounds),) + np.shape(y0)[:-1] + (1,), -np.inf)

        def step(K):
            v = K[-len(bounds):]
            norms = model_mod._norms(v)
            np.fmax(tops, np.fmax.reduce(norms, axis=1), out=tops)

        best, note = 1.0, ""
        with np.errstate(all="ignore"):
            try:
                integrate.rk4_endpoint(_with_step(rhs, step), y0, dt, substeps)
            except HorizonError:
                tops = ()
            for label, top, bound in zip(labels, tops, bounds):
                ratio = (top / bound).reshape(-1, len(agents) if agents else 1)
                r, a = np.unravel_index(np.argmax(np.where(ratio > 1, ratio, 0)), ratio.shape)
                if ratio[r, a] > best:
                    best, who = float(ratio[r, a]), f"agent {agents[a]}: " if agents else ""
                    note = f" ({who}{label} up to {best:.3g})"
        return name(k) + note

    return what


def _raw_reference(field):
    """raw_run's right-hand side of a reference field: f in place, watched against M."""

    def raw(t, y, out):
        field(y, out[0])

    raw.width = 1
    return raw


def _reference_run(run, field, y0, dt, substeps):
    """``run`` of a reference field's rows on g = saturate(f, M), through checked_run."""

    def exact(index):
        return _saturated(field if isinstance(index, slice) else field.rows(index))

    return checked_run(run, _raw_reference(field), exact, (field.M,), y0, dt, substeps)


def integrate_reference(
    agent,
    own_ref,
    nbr_refs,
    dt,
    substeps=integrate.DEFAULT_SUBSTEPS,
    integ_tol=integrate.DEFAULT_INTEG_TOL,
):
    """Solve the reference dynamics of one agent from its own reference point.

    The neighbor block is frozen at the neighbors' reference points for
    the whole interval, so the reference depends only on the cell
    configuration, never on the continuous state.  ``own_ref`` and
    ``nbr_refs`` may carry leading batch axes, one reference per row;
    every row is audited, and ``audit_err`` holds one estimate per row.
    Every stage saturates its field, with no raw run first.
    """
    own_ref = np.asarray(own_ref, dtype=float)
    nbr_refs = np.asarray(nbr_refs, dtype=float)
    n = own_ref.shape[-1]
    rows = own_ref.size // n
    field = model_mod.NetworkField(
        [agent] * rows, nbr_refs=nbr_refs.reshape(rows, nbr_refs.shape[-1])
    )

    def rhs(t, y):
        return model_mod.saturate(field(y.reshape(rows, n)), field.M).reshape(y.shape)

    traj = integrate.rk4_dense(rhs, own_ref, dt, substeps)
    err = integrate.check_audit(
        traj.endpoint, integrate.rk4_endpoint(rhs, own_ref, dt, 2 * substeps), integ_tol,
        what=f"reference of agent {agent.id}",
    )
    return ReferenceTrajectory(own_ref=own_ref, nbr_refs=nbr_refs, traj=traj, audit_err=err)


class ReferenceStack:
    """References of many agents' configurations, integrated as one batch.

    Row r belongs to ``agents[r]``: it starts at ``own_ref[r]`` and its
    neighbor block stays frozen at ``nbr_refs[r]`` (as model.NetworkField
    takes it), in one NetworkField
    over every row, so it has the bits of ``integrate_reference`` on that
    row alone.  ``field`` evaluates the raw field at any states shaped
    (..., rows, n).  The dense run is made here, through checked_run; the
    audit is a separate step.
    """

    def __init__(self, agents, own_ref, nbr_refs, dt, substeps=integrate.DEFAULT_SUBSTEPS):
        self.agents = tuple(agents)
        self.own_ref = np.asarray(own_ref, dtype=float)
        self.nbr_refs = nbr_refs
        self.dt, self.substeps = dt, substeps
        self.field = model_mod.NetworkField(self.agents, nbr_refs=self.nbr_refs)
        self.traj = _reference_run(integrate.rk4_dense, self.field, self.own_ref, dt, substeps)

    @property
    def endpoint(self):
        return self.traj.endpoint

    def audit(self, integ_tol, agent_ids):
        return audit_references(
            self.field, self.own_ref, self.endpoint, self.dt, self.substeps, integ_tol, agent_ids
        )


def audit_references(field, own_ref, endpoint, dt, substeps, integ_tol, agent_ids):
    """Step-halving estimate of every row of a frozen-neighbor reference
    field: one fine rk4_endpoint run at twice the substeps from
    ``own_ref``, through checked_run, checked against the coarse
    ``endpoint``.  An error names the first agent in ``agent_ids`` with a
    failing row, with the worst estimate over that agent's rows, and with
    its realized |f_i|/M_i when its raw field went past M."""
    rank = {i: a for a, i in enumerate(agent_ids)}
    runs = [rank[agent.id] for agent in field.agents]
    fine = _reference_run(integrate.rk4_endpoint, field, own_ref, dt, 2 * substeps)

    def rerun(a):
        rows = [r for r, run in enumerate(runs) if run == a]
        sub = field.rows(rows)
        return _raw_reference(sub), (sub.M,), own_ref[rows], dt, 2 * substeps

    what = audit_names(lambda a: f"reference of agent {agent_ids[a]}", rerun, ("|f_i|/M_i",))
    return integrate.check_audit(endpoint, fine, integ_tol, what=what, runs=runs)


def reference_endpoints(agents, own_refs, nbr_refs, dt, substeps=integrate.DEFAULT_SUBSTEPS):
    """Endpoints only, one agent per row, in one run through a NetworkField
    and checked_run (no dense storage, no audit).  Row r starts at
    ``own_refs[r]`` with ``agents[r]``'s neighbor block frozen at
    ``nbr_refs[r]``."""
    field = model_mod.NetworkField(agents, nbr_refs=nbr_refs)
    return _reference_run(integrate.rk4_endpoint, field, own_refs, dt, substeps)


def select_w(endpoint, x, lam, dt, v_max):
    """Recover the parameter steering the transition endpoint to x."""
    x = np.asarray(x, dtype=float)
    radius = r_i(lam, dt, v_max)
    gap = float(np.sqrt(np.sum((x - endpoint) ** 2)))
    if gap > radius * (1 + 1e-9):
        raise ModelError(
            f"target point at distance {gap} outside the endpoint ball of radius {radius}"
        )
    if lam == 0 or dt == 0:
        if gap > 0:
            raise ModelError("lambda=0 admits only the reference endpoint itself")
        return np.zeros_like(x)
    w = (x - endpoint) / (lam * dt)
    wn = float(np.sqrt(np.sum(w * w)))
    if wn > v_max:
        w = w * (v_max / wn)
    return w


def feedback(k1, k2, k3, v_max):
    """The transition feedback kbar = k1 + k2 + k3 and its saturation k.

    k1 = g(reference) - g(x_i, d_j) cancels the own dynamics against the
    reference, k2 = lambda * w steers, k3 = (x_G - x0) / dt corrects the
    start offset.  Arguments broadcast, so one call serves a single agent
    or a whole network with ``v_max`` as a column.
    """
    kbar = k1 + k2 + k3
    return kbar, model_mod.saturate(kbar, v_max)
