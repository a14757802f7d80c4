import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from horizon_abs import abstraction, grid, planner, reach
from horizon_abs.errors import ModelError

from conftest import (
    enumerated_decomposition,
    ring_stack,
    scalar_cells_intersecting_ball,
    scalar_label_cells,
    scalar_witness_in_cell_ball,
    scalar_witness_sweep,
)


def make_dec(center=(0.0, 0.0), base_radius=1.0, c_rate=0.0, tau=0.3, T=1.0,
             d_max=None, dt=0.1):
    fam = reach.ReachFamily(
        agent_id=1,
        base=reach.Ball(np.asarray(center, float), base_radius),
        c_rate=c_rate,
        tau=tau,
        T=T,
    )
    if d_max is None:
        d_max = base_radius / 2
    return grid.build_decomposition(fam, d_max, dt)


def sample_in_cell(dec, lattice, rng, count=200):
    lo, hi = dec.box(lattice)
    pts = lo + (hi - lo) * rng.random((count, dec.dim))
    keep = dec.region.contains(pts)
    return pts[keep]


def test_unit_disk_with_unit_side_boxes():
    dec = make_dec(base_radius=1.0, d_max=math.sqrt(2.0))
    assert dec.side == pytest.approx(1.0)
    quadrants = {(-1, -1), (-1, 0), (0, -1), (0, 0)}
    # the quadrant boxes overlap the disk; (0, 1) and (1, 0) keep exactly
    # the tangent points (0,1) and (1,0), which the half-open convention
    # assigns to them; the remaining tangent boxes clip to nothing
    assert dec.index_set == quadrants | {(0, 1), (1, 0)}
    for x in ([0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]):
        assert oracles.cell_contains(dec, grid.locate(dec, x), x)


def test_degenerate_region_is_a_single_cell():
    dec = make_dec(base_radius=0.0, c_rate=0.0, d_max=0.5)
    assert len(dec.index_set) == 1
    ((cell),) = dec.index_set
    assert oracles.cell_contains(dec, cell, dec.region.center)


def assert_matches_the_enumeration(fam, d_max, dt):
    dec = grid.build_decomposition(fam, d_max, dt)
    index_set, initiating_set, ordered = enumerated_decomposition(fam, d_max, dt)
    assert len(dec.index_set) == len(index_set)
    assert len(dec.initiating_set) == len(initiating_set)
    # Set equality iterates the mask view; <= asks it for every enumerated cell
    assert dec.index_set == index_set and index_set <= dec.index_set
    assert dec.initiating_set == initiating_set and initiating_set <= dec.initiating_set
    assert list(dec.index_set) == list(ordered)
    assert list(dec.initiating_set) == sorted(initiating_set)
    return dec


def test_mask_grid_equals_the_enumeration_on_the_tangent_unit_disk():
    fam = reach.ReachFamily(agent_id=1, base=reach.Ball(np.zeros(2), 1.0), c_rate=0.0,
                            tau=0.3, T=1.0)
    dec = assert_matches_the_enumeration(fam, math.sqrt(2.0), 0.1)
    assert (0, 1) in dec.index_set and (1, 1) not in dec.index_set


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mask_grid_equals_the_enumeration_on_random_families(n):
    rng = np.random.default_rng(40 + n)
    for trial in range(40):
        fam = reach.ReachFamily(
            agent_id=1,
            base=reach.Ball(rng.normal(scale=2.0, size=n), rng.uniform(0.0, 2.0)),
            c_rate=rng.uniform(0.0, 1.0),
            tau=0.3,
            T=1.0,
        )
        radius = max(reach.reach_at(fam, fam.T).radius, 0.1)
        if trial % 2:
            # a whole number of sides per radius: box faces touch the sphere
            d_max = radius * math.sqrt(n) / int(rng.integers(1, 6))
        else:
            d_max = rng.uniform(0.05, 1.0) * radius
        assert_matches_the_enumeration(fam, d_max, rng.uniform(0.01, 0.3))


def test_mask_grid_equals_the_enumeration_in_eight_dimensions():
    # with sides of radius/sqrt(3), boxes three sides from the center touch
    # the sphere, so three squared gaps add up to the squared radius give or
    # take rounding; numpy sums rows of 8 or more pairwise, not in axis order
    n = 8
    rng = np.random.default_rng(7)
    for trial in range(6):
        fam = reach.ReachFamily(
            agent_id=1,
            base=reach.Ball(rng.normal(scale=2.0, size=n), rng.uniform(0.0, 2.0)),
            c_rate=rng.uniform(0.0, 1.0),
            tau=0.3,
            T=1.0,
        )
        radius = max(reach.reach_at(fam, fam.T).radius, 0.1)
        assert_matches_the_enumeration(fam, radius * math.sqrt(n) / math.sqrt(3),
                                       rng.uniform(0.01, 0.3))


def test_membership_answers_what_a_frozenset_answers():
    dec = make_dec(base_radius=1.0, d_max=math.sqrt(2.0))
    for view in (dec.index_set, dec.initiating_set):
        cells = frozenset(view)
        probes = [(0, 0), (-1, -1), (1, 1), (5, 5), (-100, 0), (0,), (0, 0, 0), (),
                  (0.0, 1.0), (0.5, 0), (float("nan"), 0), (np.int64(0), np.int64(1)),
                  (True, False), ("a", "b"), "ab", 3, None]
        for key in probes:
            assert (key in view) == (key in cells), key
        for key in ([0, 0], (100, [0]), (0, {})):
            with pytest.raises(TypeError):
                key in view
    assert isinstance(dec.index_set - dec.initiating_set, frozenset)
    assert isinstance({(9, 9)} | dec.index_set, frozenset)
    assert not dec.index_set.mask.flags.writeable


def test_grid_build_holds_no_per_cell_objects(five_model, five_params):
    tracemalloc.start()
    try:
        ab = abstraction.build_abstraction(five_model, five_params)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(dec.index_set) for dec in ab.decs.values()) == 133324
    assert held < 8 * 2**20


def test_membership_oracle_agrees_with_enumeration():
    """Any box a random region point falls in must be an enumerated index."""
    dec = make_dec(center=(0.37, -1.21), base_radius=1.3, c_rate=0.8, d_max=0.7)
    rng = np.random.default_rng(0)
    pts = dec.region.center + _ball_cloud(rng, 20000, 2) * dec.region.radius
    hit = {tuple(ix) for ix in grid.locate_many(dec, pts)}
    assert hit <= dec.index_set


def test_build_rejects_nonpositive_diameter():
    with pytest.raises(ModelError):
        make_dec(d_max=0.0)


def test_partition_locate_unique_and_contained():
    dec = make_dec(center=(0.2, 0.1), base_radius=2.0, c_rate=1.0, d_max=0.9)
    rng = np.random.default_rng(1)
    pts = dec.region.center + _ball_cloud(rng, 5000, 2) * dec.region.radius
    for x in pts[:300]:
        lattice = grid.locate(dec, x)
        assert oracles.cell_contains(dec, lattice, x)
        # no other nearby cell claims the same point
        for d in itertools.product((-1, 0, 1), repeat=2):
            other = (lattice[0] + d[0], lattice[1] + d[1])
            if other != lattice and other in dec.index_set:
                assert not oracles.cell_contains(dec, other, x)
    lattices = grid.locate_many(dec, pts)
    assert {tuple(ix) for ix in lattices} <= dec.index_set


def test_locate_anchor_and_half_open_faces():
    dec = make_dec(base_radius=2.0, d_max=0.9)
    assert grid.locate(dec, dec.anchor) == (0, 0)
    on_face = dec.anchor + np.array([dec.side, 0.3 * dec.side])
    assert grid.locate(dec, on_face) == (1, 0)  # shared face goes to the higher cell
    with pytest.raises(ModelError):
        grid.locate(dec, dec.region.center + np.array([dec.region.radius + 1.0, 0.0]))


def test_reference_point_is_the_box_center_within_half_diameter():
    dec = make_dec(center=(1.0, -0.4), base_radius=1.8, c_rate=0.5, d_max=0.8)
    rng = np.random.default_rng(2)
    for lattice in sorted(dec.index_set)[::3]:
        ref = grid.reference_point(dec, np.array(lattice))
        lo, hi = dec.box(lattice)
        np.testing.assert_allclose(ref, (lo + hi) / 2)
        pts = sample_in_cell(dec, lattice, rng, 500)
        if pts.size:
            worst = np.max(np.linalg.norm(pts - ref, axis=-1))
            assert worst <= dec.side * math.sqrt(dec.dim) / 2 + 1e-12
    with pytest.raises(ModelError):
        grid.reference_point(dec, np.array([999, 999]))


def test_initiating_cells_lie_inside_the_inner_ball():
    dec = make_dec(center=(0.0, 0.0), base_radius=1.5, c_rate=2.0, d_max=0.6)
    assert dec.inner.radius < dec.region.radius
    rng = np.random.default_rng(3)
    assert dec.initiating_set
    for lattice in sorted(dec.initiating_set):
        pts = sample_in_cell(dec, lattice, rng, 400)
        assert np.all(dec.inner.contains(pts, slack=1e-12))
    # a cell at the region rim cannot initiate
    rim = grid.locate(dec, dec.region.center + np.array([dec.region.radius - 1e-6, 0.0]))
    assert rim not in dec.initiating_set


def test_zero_radius_ball_hits_exactly_the_containing_cell():
    dec = make_dec(base_radius=2.0, d_max=0.9)
    x = dec.anchor + np.array([0.3 * dec.side, 0.6 * dec.side])
    (hits,) = grid.cells_intersecting_ball(dec, [x], 0.0)
    assert hits == [grid.locate(dec, x)]


def test_ball_spanning_three_cells_per_axis():
    dec = make_dec(base_radius=3.0, d_max=0.9 * math.sqrt(2.0), c_rate=0.0)
    center = grid.reference_point(dec, (0, 0))
    (hits,) = grid.cells_intersecting_ball(dec, [center], 1.2 * dec.side)
    expected = {
        (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)
        if not (abs(i) == 1 and abs(j) == 1)
    } | {(0, 0)}
    assert set(hits) >= expected
    assert set(hits) <= {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_disjoint_ball_yields_no_cells():
    dec = make_dec(base_radius=1.0, d_max=0.5)
    far = dec.region.center + np.array([10.0, 0.0])
    assert grid.cells_intersecting_ball(dec, [far], 0.5) == [[]]


def test_intersection_matches_monte_carlo_oracle():
    """Sampled cells are always reported, and every report carries a witness."""
    rng = np.random.default_rng(4)
    for trial in range(50):
        dec = make_dec(
            center=rng.uniform(-1, 1, size=2),
            base_radius=rng.uniform(0.8, 2.0),
            c_rate=rng.uniform(0.0, 1.0),
            d_max=rng.uniform(0.3, 0.9),
        )
        center = dec.region.center + _ball_cloud(rng, 1, 2)[0] * dec.region.radius
        ball = reach.Ball(center, rng.uniform(0.1, 1.0) * dec.side * 2)
        (hits,) = grid.cells_intersecting_ball(dec, [ball.center], ball.radius)
        hits = set(hits)
        pts = ball.center + _ball_cloud(rng, 2000, 2) * ball.radius
        pts = pts[dec.region.contains(pts)]
        sampled = {tuple(ix) for ix in grid.locate_many(dec, pts)} if pts.size else set()
        assert sampled <= hits
        for lattice in hits:
            w = grid.witness_in_cell_ball(dec, lattice, ball)
            assert w is not None
            assert oracles.cell_contains(dec, lattice, w)
            assert ball.contains(w)
            assert dec.region.contains(w)


def assert_matches_the_scalar_loop(dec, centers, radius):
    batched = grid.cells_intersecting_ball(dec, centers, radius)
    assert len(batched) == len(centers)
    for center, cells in zip(centers, batched):
        assert cells == scalar_cells_intersecting_ball(dec, reach.Ball(center, radius))


@pytest.mark.parametrize("shape", ["five_agents", "ring"])
def test_intersection_matches_the_scalar_loop_on_every_post_batch(
        monkeypatch, five_model, five_params, shape):
    if shape == "five_agents":
        model = five_model
        ab = abstraction.build_abstraction(five_model, five_params)
        synthesize = planner.cascade_synthesize
    else:
        model, _, ab = ring_stack(seed=1)
        synthesize = planner.product_synthesize
    batches = []
    witnessed = []
    batched = grid.cells_intersecting_ball
    witness = grid.witness_in_cell_ball

    def recording(dec, centers, radius):
        before = len(witnessed)
        cells = batched(dec, centers, radius)
        batches.append((dec, np.array(centers), radius, len(witnessed) - before))
        return cells

    def counting(*args):
        witnessed.append(args)
        return witness(*args)

    monkeypatch.setattr(grid, "cells_intersecting_ball", recording)
    monkeypatch.setattr(grid, "witness_in_cell_ball", counting)
    synthesize(model, ab)
    monkeypatch.undo()
    assert batches and max(len(centers) for _, centers, _, _ in batches) > 1
    # the exact candidates settle every cell of these Posts: no slivers
    assert sum(slivers for *_, slivers in batches) == 0
    for dec, centers, radius, _ in batches:
        assert_matches_the_scalar_loop(dec, centers, radius)


def faces_corners_and_the_rim(n):
    """A grid in n dimensions and batches of balls of a common radius
    centered on its cell corners and faces (shifted by 0 and +-1e-12),
    tangent to and across the region sphere, and inside the region.
    Returns (dec, [(centers, radius), ...])."""
    rng = np.random.default_rng(10 + n)
    dec = make_dec(center=rng.uniform(-1, 1, size=n), base_radius=1.1, c_rate=0.7,
                   d_max=0.45 * math.sqrt(n))
    side, region = dec.side, dec.region
    cells = sorted(dec.index_set)
    lattice = np.array(cells[:: max(1, len(cells) // 12)])
    on_corners = dec.anchor + side * lattice
    on_faces = on_corners + side * 0.5 * (np.arange(n) > 0)
    grid_points = np.concatenate([on_corners, on_faces])
    directions = np.concatenate([np.eye(n), -np.eye(n), _ball_cloud(rng, 6, n)])
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    batches = []
    for radius in (0.0, 0.3 * side, 0.5 * side, side, 2.5 * side):
        for shift in (-1e-12, 0.0, 1e-12):
            batches.append((grid_points + shift, radius))
        # tangent to the region sphere from inside and outside, and across it
        for reach_out in (-radius, 0.5 * radius, radius, -0.5 * radius):
            batches.append((region.center + directions * (region.radius + reach_out), radius))
        inside = region.center + _ball_cloud(rng, 20, n) * region.radius
        batches.append((inside, radius))
    return dec, batches


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_matches_the_scalar_loop_on_faces_corners_and_the_rim(n):
    dec, batches = faces_corners_and_the_rim(n)
    for centers, radius in batches:
        assert_matches_the_scalar_loop(dec, centers, radius)


@pytest.mark.parametrize("n", [2, 3])
def test_the_witness_is_the_scalar_oracles_on_faces_corners_and_the_rim(n):
    """Bit for bit, or None on both sides, on every valid cell of each
    ball's bounding box."""
    dec, batches = faces_corners_and_the_rim(n)
    found = missed = 0
    for centers, radius in batches:
        for center in centers:
            ball = reach.Ball(center, radius)
            lo_idx = np.floor((center - radius - dec.anchor) / dec.side).astype(int)
            hi_idx = np.floor((center + radius - dec.anchor) / dec.side).astype(int)
            for lattice in itertools.product(*map(range, lo_idx, hi_idx + 1)):
                if lattice not in dec.index_set:
                    continue
                point = grid.witness_in_cell_ball(dec, lattice, ball)
                expected = scalar_witness_in_cell_ball(dec, lattice, ball)
                assert (point is None) == (expected is None)
                if point is None:
                    missed += 1
                else:
                    found += 1
                    assert point.tobytes() == expected.tobytes()
    assert found and missed


def rim_sliver():
    """A rim cell whose box center, clamp point and clamp point off the
    upper faces all lie outside the region, and a ball reaching its
    corner from outside: only the sweep finds the corner in the region.
    Returns (dec, cell, ball center, ball radius)."""
    dec = make_dec(base_radius=1.0, d_max=0.5 * math.sqrt(2.0))
    rim = (1, 1)
    lo, hi = dec.box(rim)
    assert not dec.region.contains((lo + hi) / 2)
    assert dec.region.contains(lo + 0.3 * dec.side)
    center = hi + dec.side
    return dec, rim, center, 1.01 * float(np.linalg.norm(center - lo))


def test_a_sliver_goes_to_the_scalar_witness_sweep(monkeypatch):
    dec, rim, center, radius = rim_sliver()
    lo, hi = dec.box(rim)
    calls = []
    scalar = grid.witness_in_cell_ball

    def counting(dec, lattice, ball):
        point = scalar(dec, lattice, ball)
        calls.append((lattice, point))
        return point

    monkeypatch.setattr(grid, "witness_in_cell_ball", counting)
    (cells,) = grid.cells_intersecting_ball(dec, [center], radius)
    assert rim in cells
    slivers = [lattice for lattice, _ in calls]
    assert slivers.count(rim) == 1
    point = dict(calls)[rim]
    assert point is not None and oracles.cell_contains(dec, rim, point)
    assert not np.array_equal(point, np.clip(center, lo, hi))
    monkeypatch.undo()
    assert cells == scalar_cells_intersecting_ball(dec, reach.Ball(center, radius))


def test_the_sliver_witness_is_the_point_by_point_sweeps():
    dec, rim, center, radius = rim_sliver()
    ball = reach.Ball(center, radius)
    point = grid.witness_in_cell_ball(dec, rim, ball)
    expected = scalar_witness_sweep(dec, *dec.box(rim), ball)
    assert expected is not None and np.array_equal(point, expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_sweep_matches_the_point_by_point_loop(n):
    """On rim cells, with balls that catch a sweep point or none."""
    rng = np.random.default_rng(30 + n)
    dec = make_dec(center=rng.uniform(-1, 1, size=n), base_radius=1.0,
                   d_max=0.4 * math.sqrt(n))
    corners = np.array(list(itertools.product((0, 1), repeat=n)))
    rim = [c for c in sorted(dec.index_set)
           if not np.all(dec.region.contains(dec.anchor + dec.side * (np.array(c) + corners)))]
    found = 0
    for lattice in rim[:: max(1, len(rim) // 25)]:
        lo, hi = dec.box(lattice)
        for _ in range(4):
            ball = reach.Ball(lo + rng.uniform(-0.5, 1.5, size=n) * dec.side,
                              rng.uniform(0.02, 0.8) * dec.side)
            expected = scalar_witness_sweep(dec, lo, hi, ball)
            point = grid._witness_sweep(dec, lo, hi, ball)
            assert (point is None) == (expected is None)
            if point is not None:
                found += 1
                assert np.array_equal(point, expected)
    assert 0 < found < 4 * len(rim[:: max(1, len(rim) // 25)])


def test_deepen_point_gains_face_clearance():
    rng = np.random.default_rng(5)
    dec = make_dec(base_radius=2.0, c_rate=0.5, d_max=0.8)
    for lattice in sorted(dec.initiating_set)[:40]:
        lo, hi = dec.box(lattice)
        ball = reach.Ball(grid.reference_point(dec, lattice) + rng.normal(scale=0.1, size=2),
                          rng.uniform(0.3, 1.0) * dec.side)
        p = grid.witness_in_cell_ball(dec, lattice, ball)
        if p is None:
            continue
        q = grid.deepen_point(dec, lattice, ball, p)
        assert oracles.cell_contains(dec, lattice, q)
        assert ball.contains(q)
        assert dec.region.contains(q)
        assert np.min(np.minimum(q - lo, hi - q)) >= np.min(np.minimum(p - lo, hi - p))


def test_label_cells_requires_full_containment():
    dec = make_dec(base_radius=2.0, d_max=0.9)
    lattice = (0, 0)
    lo, hi = dec.box(lattice)
    assert grid.label_cells(dec, lo, hi) == [lattice]
    # shrinking the box by any margin empties the label set
    assert grid.label_cells(dec, lo + 0.01 * dec.side, hi) == []
    # a 2x2-cell box labels exactly those four cells
    lo2, _ = dec.box((0, 0))
    _, hi2 = dec.box((1, 1))
    assert grid.label_cells(dec, lo2, hi2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_label_cells_matches_the_scalar_loop_on_five_agent_goals(five_model, five_abstraction):
    for agent in five_model.agents:
        dec = five_abstraction.decs[agent.id]
        assert agent.goals
        for goal in agent.goals:
            labeled = grid.label_cells(dec, goal.lo, goal.hi)
            assert labeled
            assert labeled == scalar_label_cells(dec, goal.lo, goal.hi)


@pytest.mark.parametrize("offset", [-2e-12, -1e-12, 0.0, 1e-12, 2e-12])
def test_label_cells_matches_the_scalar_loop_on_cell_faces(five_abstraction, offset):
    """Goal faces exactly on cell faces, and just inside or outside them."""
    dec = make_dec(base_radius=2.0, d_max=0.9)
    five = five_abstraction.decs[3]
    for d, corners in ((dec, [(-1, -2), (0, 0), (1, -1)]), (five, [(-40, 7), (0, 0), (12, -3)])):
        for a, b in corners:
            lo, _ = d.box((a, b))
            _, hi = d.box((a + 2, b + 3))
            for lo_shift, hi_shift in ((offset, 0.0), (0.0, offset), (offset, -offset)):
                glo, ghi = lo + lo_shift, hi + hi_shift
                assert grid.label_cells(d, glo, ghi) == scalar_label_cells(d, glo, ghi)
    assert grid.label_cells(dec, *dec.box((0, 0))) == [(0, 0)]


def test_projection_follows_declared_neighbor_order(five_model):
    cells = {i: [(i, i), (i, -i)] for i in five_model.agent_ids}
    configs = planner.plan_configs(five_model, cells, 2)
    assert configs[2] == [((2, 2), (3, 3)), ((2, -2), (3, -3))]
    assert configs[3] == [((3, 3),), ((3, -3),)]
    assert configs[1] == [((1, 1), (2, 2)), ((1, -1), (2, -2))]
    assert planner.plan_configs(five_model, cells, 1)[1] == [((1, 1), (2, 2))]


def _ball_cloud(rng, count, n):
    """Uniform samples from the unit n-ball."""
    u = rng.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u * rng.random((count, 1)) ** (1.0 / n)
