"""Uniform grid cell decompositions of the per-agent reachable balls.

Cells are half-open axis-aligned boxes ``anchor + side*[k, k+1)`` per
axis, clipped to the region ball, so the valid cells form a true
partition of the region.  The grid is anchored at the agent's initial
state.  A cell index is the integer lattice tuple of its box.

Grids are built, labeled and intersected with balls one array at a
time: ``cells_intersecting_ball`` tests all cells of a whole batch of
endpoint balls in one pass, and hands only boundary slivers, where none
of the exact candidate witnesses lands, to the scalar
``witness_in_cell_ball`` and its low-discrepancy sweep.
"""

import functools
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

    index_tuples = list(zip(*lattices.T.tolist()))
    return CellDecomposition(
        agent_id=family.agent_id,
        anchor=np.asarray(anchor, dtype=float),
        side=side,
        region=region,
        inner=inner,
        index_set=frozenset(index_tuples),
        initiating_set=frozenset(itertools.compress(index_tuples, initiating.tolist())),
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


@functools.cache
def _halton(n):
    """The first _WITNESS_FALLBACK_POINTS Halton points in [0, 1)^n, built
    once per dimension and shared read-only."""
    count = _WITNESS_FALLBACK_POINTS
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
    out.flags.writeable = False
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
    return _witness_sweep(dec, lo, hi, ball)


def _witness_sweep(dec, lo, hi, ball):
    """The first Halton point of the box [lo, hi) inside both balls, or None."""
    sweep = lo + _halton(dec.dim) * dec.side
    hits = np.flatnonzero(
        ball.contains(sweep) & dec.region.contains(sweep) & np.all(sweep < hi, axis=-1)
    )
    return sweep[hits[0]] if hits.size else None


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


def cells_intersecting_ball(dec, centers, radius):
    """Sorted valid indices whose clipped cell meets each ball.

    Row b of ``centers`` is the center of a ball of the common
    ``radius``; the result holds one sorted index list per row.  Every
    cell of every ball's bounding box is tested in one array pass, with
    the float expressions of ``witness_in_cell_ball`` in its order: the
    clamp gap, then its three candidate witnesses.  Only slivers, cells
    within reach of the ball where no candidate lands, go to that
    function for its low-discrepancy sweep.
    """
    n = dec.dim
    centers = np.asarray(centers, dtype=float).reshape(-1, n)
    hits = [[] for _ in range(len(centers))]
    if not hits:
        return hits
    lo_idx = np.floor((centers - radius - dec.anchor) / dec.side).astype(int)
    hi_idx = np.floor((centers + radius - dec.anchor) / dec.side).astype(int)
    span = hi_idx - lo_idx
    # each ball's box lattice in lexicographic order, rows one after another
    offsets = np.indices(tuple(np.max(span, axis=0) + 1)).reshape(n, -1).T
    row = np.repeat(np.arange(len(centers)), len(offsets))
    offsets = np.tile(offsets, (len(centers), 1))
    inside = np.all(offsets <= span[row], axis=-1)
    row = row[inside]
    lattice = lo_idx[row] + offsets[inside]

    c = centers[row]
    lo = dec.anchor + dec.side * lattice.astype(float)
    hi = lo + dec.side
    q = np.clip(c, lo, hi)
    gap = np.sqrt(np.sum((q - c) ** 2, axis=-1))
    near = np.flatnonzero(gap <= radius)
    keys = list(zip(*lattice[near].T.tolist()))
    member = np.fromiter((k in dec.index_set for k in keys), bool, len(keys))
    keys = list(itertools.compress(keys, member))
    row, c, lo, hi, q, gap = (a[near[member]] for a in (row, c, lo, hi, q, gap))

    def lands(p):
        return (
            np.all(p >= lo, axis=-1)
            & np.all(p < hi, axis=-1)
            & (np.sqrt(np.sum((p - c) ** 2, axis=-1)) <= radius)
            & dec.region.contains(p)
        )

    center = (lo + hi) / 2
    delta = center - c
    dn = np.sqrt(np.sum(delta**2, axis=-1))
    pull = (dn > radius) & (dn > 0)
    scale = radius * (1 - 1e-12) / np.where(pull, dn, 1.0)
    pulled = np.where(pull[:, None], c + delta * scale[:, None], center)
    # at zero slack eps is 0 and off_hi equals q, as if never proposed
    slack = radius - gap
    eps = np.minimum(dec.side * 1e-9, slack / (2 * math.sqrt(n)))
    off_hi = np.where(q >= hi, hi - eps[:, None], q)
    hit = lands(pulled) | lands(q) | lands(off_hi)
    for k in np.flatnonzero(~hit):
        ball = reach.Ball(centers[row[k]], radius)
        hit[k] = witness_in_cell_ball(dec, keys[k], ball) is not None
    for b, key in zip(row[hit].tolist(), itertools.compress(keys, hit)):
        hits[b].append(key)
    return hits


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
