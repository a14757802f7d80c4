"""Ball-shaped reachable-set overapproximations with linear radius growth.

All sets here are Euclidean balls around an agent's initial state.  The
family stores the base ball covering everything reachable up to T - tau
and grows it at the worst-case speed rate; Minkowski sums of balls are
exact radius additions, so the growth law has no overapproximation gap
of its own.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius < 0:
            raise ModelError(f"negative ball radius {self.radius}")

    def contains(self, x, slack=0.0):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.sum((x - self.center) ** 2, axis=-1)) <= self.radius + slack


@dataclass(frozen=True)
class ReachFamily:
    """Time-indexed balls R([0, t]) for t in [T - tau, T]."""

    agent_id: int
    base: Ball
    c_rate: float
    tau: float
    T: float

    def __post_init__(self):
        if self.c_rate < 0:
            raise ModelError("negative growth rate")
        if not 0 < self.tau < self.T:
            raise ModelError(f"tau must lie in (0, T); got tau={self.tau}, T={self.T}")


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
