"""Uniform grid cell decompositions of the per-agent reachable balls.

Cells are half-open axis-aligned boxes ``anchor + side*[k, k+1)`` per
axis, clipped to the region ball, so the valid cells form a true
partition of the region.  The grid is anchored at the agent's initial
state.  A cell index is the integer lattice tuple of its box.

A decomposition stores its cells as boolean masks over the region's
bounding lattice box, one for valid and one for initiating cells, built
axis by axis without a per-cell object; ``index_set`` and
``initiating_set`` are read-only set views of those masks.

Grids are built, labeled and intersected with balls one array at a
time: ``cells_intersecting_ball`` tests all cells of a whole batch of
endpoint balls in one pass, and hands only boundary slivers, where none
of the exact candidate witnesses lands, to the scalar
``witness_in_cell_ball`` and its low-discrepancy sweep.
"""

import collections.abc
import functools
import itertools
import math

import numpy as np

from . import reach
from .errors import ModelError

_WITNESS_FALLBACK_POINTS = 256
_PRIMES = (2, 3, 5, 7, 11, 13, 17)


class CellSet(collections.abc.Set):
    """Read-only set of lattice tuples held as a boolean mask over a lattice box.

    ``origin`` is the lattice index of the mask's first entry.  Membership
    answers what a frozenset of int tuples would, iteration is
    lexicographic and set algebra returns a frozenset.
    """

    def __init__(self, origin, mask):
        mask = np.ascontiguousarray(mask, dtype=bool).view()
        mask.flags.writeable = False
        self.origin = np.array(origin, dtype=int)
        self.mask = mask
        self._len = int(np.count_nonzero(mask))
        # the flat index step of each axis of the C-ordered mask
        self._steps = np.append(np.cumprod(mask.shape[:0:-1], dtype=int)[::-1], 1)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self):
        return self._len

    def __iter__(self):
        return iter(_lattice_tuples(self.origin, self.mask))

    def __contains__(self, key):
        hash(key)  # an unhashable key raises, as in a frozenset
        try:
            # keys equal to an int tuple, such as (1.0, 2.0), are members too
            ints = tuple(int(k) for k in key)
            return ints == key and len(ints) == self.mask.ndim and self.contains_many([ints])[0]
        except (TypeError, ValueError, OverflowError):
            return False

    def codes(self, lattice):
        """The flat index into the mask box of every row of an int lattice
        array, -1 for a row outside the box; lexicographic order of rows
        is the order of their codes."""
        rel = np.asarray(lattice, dtype=int).reshape(-1, self.mask.ndim) - self.origin
        inbox = np.all((rel >= 0) & (rel < self.mask.shape), axis=-1)
        return np.where(inbox, rel @ self._steps, -1)

    def contains_many(self, lattice):
        """Membership of every row of an int lattice array, in one gather."""
        codes = self.codes(lattice)
        out = codes >= 0
        out[out] = self.mask.ravel()[codes[out]]
        return out

    def __repr__(self):
        return f"CellSet({self._len} cells in a {'x'.join(map(str, self.mask.shape))} box)"


def _lattice_tuples(origin, mask):
    """The lattice tuples of a mask's set entries, in lexicographic order."""
    return list(map(tuple, (np.argwhere(mask) + origin).tolist()))


class CellDecomposition:
    def __init__(self, agent_id, anchor, side, region, inner, index_set, initiating_set):
        self.agent_id = agent_id
        self.anchor = anchor
        self.side = side
        self.region = region
        self.inner = inner
        self.index_set = index_set
        self.initiating_set = initiating_set

    @property
    def dim(self):
        return self.anchor.shape[0]

    @property
    def d_max(self):
        return self.side * math.sqrt(self.dim)

    def box(self, lattice):
        lo = self.anchor + self.side * np.asarray(lattice, dtype=float)
        return lo, lo + self.side


def _axis_bounds(anchor, side, origin, shape):
    """Per axis, the lower and upper box faces of every lattice column,
    with the arithmetic of ``CellDecomposition.box``."""
    los = [a + side * np.arange(o, o + size) for a, o, size in zip(anchor, origin, shape)]
    return los, [lo + side for lo in los]


def _columns(values):
    """One 1-D array per axis, each shaped to broadcast along its axis of
    the lattice box."""
    n = len(values)
    return [v.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k)) for k, v in enumerate(values)]


def _all_axes(values):
    """Per cell of the lattice box, whether the boolean of every axis holds."""
    cols = _columns(values)
    out = cols[0]
    for col in cols[1:]:
        out = out & col
    return out


def _sum_axes(values):
    """Per cell of the lattice box, the sum of one value per axis.

    The values are laid out along a last axis and summed over it, so they
    add up in the order of every other squared distance in this module
    (numpy sums short rows in axis order but rows of 8 or more pairwise).
    """
    return np.sum(np.stack(np.broadcast_arrays(*_columns(values)), axis=-1), axis=-1)


def build_decomposition(family, d_max, dt):
    """Mask every grid cell whose box touches the agent's horizon ball.

    The tests are separable, so each runs once per lattice column of an
    axis and is combined over the box by broadcasting: the squared clamp
    gaps are summed per cell, and the farthest corner of a box takes the
    larger squared corner gap on every axis.
    """
    if d_max <= 0:
        raise ModelError(f"d_max must be positive, got {d_max}")
    region = reach.reach_at(family, family.T)
    inner = reach.inner_region(family, dt)
    anchor = np.asarray(family.base.center, dtype=float)
    n = anchor.shape[0]
    side = d_max / math.sqrt(n)

    lo = np.floor((region.center - region.radius - anchor) / side)
    hi = np.floor((region.center + region.radius - anchor) / side)
    # NaN fails every comparison, so a non-finite bound is caught here too
    if not np.all((lo >= -(2.0**63)) & (hi < 2.0**63) & (hi - lo < 2.0**63)):
        raise ModelError(
            f"agent {family.agent_id}: the lattice of its region (radius {region.radius:g}, "
            f"cell side {side:g}) does not fit in int64"
        )
    origin, top = lo.astype(int), hi.astype(int)
    los, his = _axis_bounds(anchor, side, origin, top - origin + 1)
    clamp = [np.clip(region.center[k], los[k], his[k]) for k in range(n)]
    dist = np.sqrt(_sum_axes([(clamp[k] - region.center[k]) ** 2 for k in range(n)]))
    # boxes tangent to the sphere keep only the closest point; it must
    # survive the half-open convention or the clipped cell is empty
    tangent_ok = _all_axes([clamp[k] < his[k] for k in range(n)])
    valid = (dist < region.radius) | ((dist <= region.radius) & tangent_ok)

    far = [
        np.maximum((los[k] - inner.center[k]) ** 2, (his[k] - inner.center[k]) ** 2)
        for k in range(n)
    ]
    initiating = valid & (np.sqrt(_sum_axes(far)) <= inner.radius)
    return CellDecomposition(
        agent_id=family.agent_id,
        anchor=anchor,
        side=side,
        region=region,
        inner=inner,
        index_set=CellSet(origin, valid),
        initiating_set=CellSet(origin, initiating),
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
    """The center of a valid cell, or of every row of an int lattice array;
    an invalid cell (the first invalid row) is a ModelError."""
    if isinstance(lattice, np.ndarray):
        bad = ~dec.index_set.contains_many(lattice)
        if np.any(bad):
            raise ModelError(f"invalid cell index {tuple(lattice[np.argmax(bad)].tolist())}")
    elif lattice not in dec.index_set:
        raise ModelError(f"invalid cell index {lattice}")
    return dec.anchor + dec.side * (np.asarray(lattice, dtype=float) + 0.5)


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
    near = near[dec.index_set.contains_many(lattice[near])]
    keys = list(zip(*lattice[near].T.tolist()))
    row, c, lo, hi, q, gap = (a[near] for a in (row, c, lo, hi, q, gap))

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

    One mask over the lattice box, with the box arithmetic of
    ``CellDecomposition.box``; the result is in sorted index order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cells = dec.index_set
    los, his = _axis_bounds(dec.anchor, dec.side, cells.origin, cells.mask.shape)
    inside = _all_axes(
        [(los[k] >= lo[k] - 1e-12) & (his[k] <= hi[k] + 1e-12) for k in range(dec.dim)]
    )
    return _lattice_tuples(cells.origin, cells.mask & inside)
