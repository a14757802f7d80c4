"""Uniform grid cell decompositions of the per-agent reachable balls.

Cells are half-open axis-aligned boxes ``anchor + side*[k, k+1)`` per
axis, clipped to the region ball, so the valid cells form a true
partition of the region.  The grid is anchored at the agent's initial
state.  A cell index is the integer lattice tuple of its box.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import reach
from .errors import ModelError

_WITNESS_FALLBACK_POINTS = 256
_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@dataclass(frozen=True, eq=False)
class CellDecomposition:
    agent_id: int
    anchor: np.ndarray
    side: float
    region: reach.Ball
    inner: reach.Ball
    index_set: frozenset
    initiating_set: frozenset
    sorted_indices: tuple = field(repr=False, default=())

    @property
    def dim(self):
        return self.anchor.shape[0]

    @property
    def d_max(self):
        return self.side * math.sqrt(self.dim)

    def box(self, lattice):
        lo = self.anchor + self.side * np.asarray(lattice, dtype=float)
        return lo, lo + self.side


def build_decomposition(family, d_max, dt):
    """Enumerate all grid cells whose box touches the agent's horizon ball."""
    if d_max <= 0:
        raise ModelError(f"d_max must be positive, got {d_max}")
    region = reach.reach_at(family, family.T)
    inner = reach.inner_region(family, dt)
    anchor = family.base.center
    n = anchor.shape[0]
    side = d_max / math.sqrt(n)

    lo_idx = np.floor((region.center - region.radius - anchor) / side).astype(int)
    hi_idx = np.floor((region.center + region.radius - anchor) / side).astype(int)
    axes = [np.arange(lo_idx[k], hi_idx[k] + 1) for k in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    los = anchor + side * mesh
    clamp = np.clip(region.center, los, los + side)
    dist = np.sqrt(np.sum((clamp - region.center) ** 2, axis=-1))
    # boxes tangent to the sphere keep only the closest point; it must
    # survive the half-open convention or the clipped cell is empty
    valid = (dist < region.radius) | (
        (dist <= region.radius) & np.all(clamp < los + side, axis=-1)
    )
    lattices = mesh[valid]

    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    corner_pts = los[valid][:, None, :] + side * corners[None, :, :]
    corner_dist = np.sqrt(np.sum((corner_pts - inner.center) ** 2, axis=-1))
    initiating = np.all(corner_dist <= inner.radius, axis=-1)

    index_tuples = [tuple(int(v) for v in row) for row in lattices]
    initiating_tuples = [t for t, flag in zip(index_tuples, initiating) if flag]
    return CellDecomposition(
        agent_id=family.agent_id,
        anchor=np.asarray(anchor, dtype=float),
        side=side,
        region=region,
        inner=inner,
        index_set=frozenset(index_tuples),
        initiating_set=frozenset(initiating_tuples),
        sorted_indices=tuple(sorted(index_tuples)),
    )


def locate(dec, x):
    """The unique cell containing x; x must lie in the region ball."""
    x = np.asarray(x, dtype=float)
    if not dec.region.contains(x):
        raise ModelError(
            f"point {x.tolist()} outside the region of agent {dec.agent_id}"
        )
    lattice = tuple(int(v) for v in np.floor((x - dec.anchor) / dec.side))
    if lattice not in dec.index_set:
        raise ModelError(f"located cell {lattice} is not a valid index")
    return lattice


def locate_many(dec, pts):
    """Vectorized floor-indexing of points known to lie in the region."""
    return np.floor((np.asarray(pts, dtype=float) - dec.anchor) / dec.side).astype(int)


def reference_point(dec, lattice):
    if lattice not in dec.index_set:
        raise ModelError(f"invalid cell index {lattice}")
    return dec.anchor + dec.side * (np.asarray(lattice, dtype=float) + 0.5)


def cell_contains(dec, lattice, x, slack=0.0):
    """Half-open box membership, intersected with the region ball."""
    lo, hi = dec.box(lattice)
    x = np.asarray(x, dtype=float)
    if not (np.all(x >= lo - slack) and np.all(x < hi + slack)):
        return False
    return bool(dec.region.contains(x, slack=slack))


def _halton(count, n):
    out = np.empty((count, n))
    for axis in range(n):
        base = _PRIMES[axis % len(_PRIMES)]
        seq = np.zeros(count)
        denom = 1.0
        idx = np.arange(1, count + 1)
        rem = idx.astype(float)
        while np.any(rem > 0):
            denom *= base
            seq += (rem % base) / denom
            rem = rem // base
        out[:, axis] = seq
    return out


def witness_in_cell_ball(dec, lattice, ball):
    """A point of (cell box, half-open) inside both balls, or None.

    The clamp point of the ball center onto the box settles nearly every
    query exactly; a low-discrepancy sweep backs up the rare sliver
    cases near the region boundary.
    """
    lo, hi = dec.box(lattice)
    q = np.clip(ball.center, lo, hi)
    gap = float(np.sqrt(np.sum((q - ball.center) ** 2)))
    if gap > ball.radius:
        return None
    n = dec.dim
    candidates = []
    center = (lo + hi) / 2
    delta = center - ball.center
    dn = float(np.sqrt(np.sum(delta**2)))
    if dn > ball.radius and dn > 0:
        candidates.append(ball.center + delta * (ball.radius * (1 - 1e-12) / dn))
    else:
        candidates.append(center)
    candidates.append(q)
    slack = ball.radius - gap
    if slack > 0:
        eps = min(dec.side * 1e-9, slack / (2 * math.sqrt(n)))
        q2 = np.array(q)
        on_hi = q2 >= hi
        if np.any(on_hi):
            q2[on_hi] = hi[on_hi] - eps
            candidates.append(q2)
    for p in candidates:
        if (
            np.all(p >= lo)
            and np.all(p < hi)
            and ball.contains(p)
            and dec.region.contains(p)
        ):
            return p
    for u in _halton(_WITNESS_FALLBACK_POINTS, n):
        p = lo + u * dec.side
        if ball.contains(p) and dec.region.contains(p) and np.all(p < hi):
            return p
    return None


def deepen_point(dec, lattice, ball, p):
    """Pull a witness point toward the box center for face clearance.

    The result stays inside the half-open box, the region ball, and the
    given ball; whenever the intersection has interior it strictly
    clears every face, so a controller steering to it lands with a
    positive membership margin.
    """
    lo, hi = dec.box(lattice)
    box_center = (lo + hi) / 2
    u = box_center - p
    dist = float(np.sqrt(np.sum(u * u)))
    if dist == 0:
        return p
    ball_room = ball.radius - float(np.sqrt(np.sum((p - ball.center) ** 2)))
    reg_room = dec.region.radius - float(np.sqrt(np.sum((p - dec.region.center) ** 2)))
    step = 0.45 * min(ball_room, reg_room, dist)
    if step <= 0:
        return p
    return p + u * (step / dist)


def cells_intersecting_ball(dec, ball):
    """Sorted valid indices whose clipped cell meets the ball."""
    lo_idx = np.floor((ball.center - ball.radius - dec.anchor) / dec.side).astype(int)
    hi_idx = np.floor((ball.center + ball.radius - dec.anchor) / dec.side).astype(int)
    n = dec.dim
    hits = []
    for lattice in itertools.product(
        *(range(int(lo_idx[k]), int(hi_idx[k]) + 1) for k in range(n))
    ):
        if lattice not in dec.index_set:
            continue
        if witness_in_cell_ball(dec, lattice, ball) is not None:
            hits.append(lattice)
    return sorted(hits)


def label_cells(dec, lo, hi):
    """Cells whose full box sits inside the closed goal box [lo, hi].

    One mask over the sorted lattice, with the box arithmetic of
    ``CellDecomposition.box``; the result stays in sorted index order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lattice = np.array(dec.sorted_indices, dtype=float).reshape(-1, dec.dim)
    cell_lo = dec.anchor + dec.side * lattice
    cell_hi = cell_lo + dec.side
    inside = np.all(cell_lo >= lo - 1e-12, axis=1) & np.all(cell_hi <= hi + 1e-12, axis=1)
    return [dec.sorted_indices[r] for r in np.flatnonzero(inside)]


def pr(model, cells_by_agent, agent_id):
    """Project a full cell assignment onto one agent's configuration."""
    agent = model.agent(agent_id)
    return (cells_by_agent[agent_id],) + tuple(cells_by_agent[j] for j in agent.neighbors)
