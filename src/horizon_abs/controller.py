"""Saturated reference dynamics and the transition feedback law.

A transition is specified by a cell configuration (own cell plus the
neighbors' cells), a free parameter w in the ball of radius v_max, and
the initial state inside the own cell.  The feedback law cancels the
own dynamics against a reference trajectory driven by frozen neighbor
reference points, steers toward the reference endpoint shifted by
lambda*w*t, and corrects the initial cell offset.  This module solves
the references and evaluates the law; the closed loop (sim) applies it.
"""

from dataclasses import dataclass

import numpy as np

from . import integrate, model as model_mod
from .errors import ModelError


def eval_g(agent, x_i, x_j):
    """The globally bounded field: the raw dynamics saturated at M."""
    return model_mod.saturate(model_mod.eval_f(agent, x_i, x_j), agent.M)


def r_i(lam, dt, v_max):
    return lam * dt * v_max


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory:
    """One reference, or a batch of them along the leading axes of its arrays."""

    own_ref: np.ndarray
    nbr_refs: np.ndarray
    traj: integrate.DenseTrajectory
    audit_err: object

    def eval(self, t):
        return self.traj.eval(t)


def integrate_reference(
    agent,
    own_ref,
    nbr_refs,
    dt,
    substeps=integrate.DEFAULT_SUBSTEPS,
    integ_tol=integrate.DEFAULT_INTEG_TOL,
):
    """Solve the reference dynamics from the own reference point.

    The neighbor block is frozen at the neighbors' reference points for
    the whole interval, so the reference depends only on the cell
    configuration, never on the continuous state.  ``own_ref`` and
    ``nbr_refs`` may carry leading batch axes, one reference per row;
    every row is audited, and ``audit_err`` holds one estimate per row.
    """
    own_ref = np.asarray(own_ref, dtype=float)
    nbr_refs = np.asarray(nbr_refs, dtype=float)

    def rhs(t, y):
        return eval_g(agent, y, nbr_refs)

    traj = integrate.rk4_dense(rhs, own_ref, dt, substeps)
    err = integrate.check_audit(
        rhs, own_ref, dt, substeps, integ_tol,
        what=f"reference of agent {agent.id}", coarse=traj.endpoint,
    )
    return ReferenceTrajectory(own_ref=own_ref, nbr_refs=nbr_refs, traj=traj, audit_err=err)


class ReferenceStack:
    """References of many agents' configurations, integrated as one batch.

    Row r belongs to ``agents[r]``: it starts at ``own_ref[r]`` and its
    neighbor block stays frozen at ``nbr_refs[r]``, so it has the bits of
    ``integrate_reference`` on that row alone.  The field of every row is
    evaluated at once: rows are grouped by equal dynamics as in
    model.NetworkField and saturated at their agent's M.  The dense run is
    made here; the audit is a separate step.
    """

    def __init__(self, agents, own_ref, nbr_refs, dt, substeps=integrate.DEFAULT_SUBSTEPS):
        self.agents = tuple(agents)
        self.own_ref = np.asarray(own_ref, dtype=float)
        self.nbr_refs = tuple(np.asarray(nbr, dtype=float) for nbr in nbr_refs)
        self.dt, self.substeps = dt, substeps
        # the frozen neighbor points follow the reference rows, row after row
        n = self.own_ref.shape[-1]
        points = [nbr.reshape(-1, n) for nbr in self.nbr_refs]
        starts = np.cumsum([len(self.agents)] + [len(p) for p in points])
        neighbor_rows = [list(range(a, a + len(p))) for a, p in zip(starts, points)]
        self._points = np.concatenate([np.empty((0, n))] + points)
        self._field = model_mod.NetworkField(self.agents, neighbor_rows)
        self._M = np.array([agent.M for agent in self.agents])[:, None]
        self.traj = integrate.rk4_dense(self._rhs, self.own_ref, dt, substeps)

    @property
    def endpoint(self):
        return self.traj.endpoint

    def field(self, Y):
        """The saturated field g of every row at states Y, shaped (..., rows, n)."""
        points = np.broadcast_to(self._points, Y.shape[:-2] + self._points.shape)
        return model_mod.saturate(self._field(np.concatenate((Y, points), axis=-2)), self._M)

    def _rhs(self, t, Y):
        return self.field(Y)

    def audit(self, integ_tol, agent_ids):
        """Step-halving estimate of every row.  An error names the first
        agent in ``agent_ids`` with a failing row, with the worst estimate
        over that agent's rows."""
        rank = {i: a for a, i in enumerate(agent_ids)}
        return integrate.check_audit(
            self._rhs, self.own_ref, self.dt, self.substeps, integ_tol,
            what=lambda a: f"reference of agent {agent_ids[a]}", coarse=self.endpoint,
            runs=[rank[agent.id] for agent in self.agents],
        )


def reference_endpoints(agent, own_refs, nbr_refs, dt, substeps=integrate.DEFAULT_SUBSTEPS):
    """Endpoints only, batched over configurations (no dense storage, no audit)."""

    def rhs(t, y):
        return eval_g(agent, y, nbr_refs)

    return integrate.rk4_endpoint(rhs, own_refs, dt, substeps)


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
