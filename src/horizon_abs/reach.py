"""Ball-shaped reachable-set overapproximations with linear radius growth.

All sets here are Euclidean balls around an agent's initial state.  The
family stores the base ball covering everything reachable up to T - tau
and grows it at the worst-case speed rate; Minkowski sums of balls are
exact radius additions, so the growth law has no overapproximation gap
of its own.
"""

import functools

import numpy as np

from .errors import ModelError


class Ball:
    def __init__(self, center, radius):
        if radius < 0:
            raise ModelError(f"negative ball radius {radius}")
        self.center = np.asarray(center, dtype=float)
        self.radius = radius

    def contains(self, x, slack=0.0):
        x = np.asarray(x, dtype=float)
        return np.sqrt(row_reduce(np.add, (x - self.center) ** 2)) <= self.radius + slack


def row_reduce(op, a):
    """op.reduce(a, axis=-1) for op np.add or np.logical_and, with its bits:
    numpy reduces rows of fewer than 8 entries in axis order, about 17 ns
    a row, and such rows are reduced here a column at a time instead."""
    if 0 < a.shape[-1] < 8:
        return functools.reduce(op, (a[..., k] for k in range(a.shape[-1])))
    return op.reduce(a, axis=-1)


class ReachFamily:
    """Time-indexed balls R([0, t]) for t in [T - tau, T]."""

    def __init__(self, agent_id, base, c_rate, tau, T):
        if c_rate < 0:
            raise ModelError("negative growth rate")
        if not 0 < tau < T:
            raise ModelError(f"tau must lie in (0, T); got tau={tau}, T={T}")
        self.agent_id = agent_id
        self.base = base
        self.c_rate = c_rate
        self.tau = tau
        self.T = T


def c_i(family, sigma):
    """Radius gained over a duration sigma of unrestricted motion."""
    if sigma < 0:
        raise ModelError(f"negative duration {sigma}")
    return family.c_rate * sigma


def reach_at(family, t):
    """The ball covering R([0, t]); defined for t in [T - tau, T]."""
    lo = family.T - family.tau
    if not lo <= t <= family.T:
        raise ModelError(f"t={t} outside [{lo}, {family.T}]")
    return Ball(family.base.center, family.base.radius + c_i(family, t - lo))


def inner_region(family, dt):
    """R([0, T - dt]), the ball gating transition-initiating cells."""
    if not 0 < dt < family.tau:
        raise ModelError(f"dt={dt} outside (0, {family.tau})")
    return reach_at(family, family.T - dt)
