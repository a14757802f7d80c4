"""SVG rendering: structure, layer counts, and byte determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horizon_abs import planner, render, sim
from horizon_abs.errors import ModelError

from conftest import make_model, make_stack, pair_doc


@pytest.fixture(scope="module")
def pair_render_inputs(pair_stack):
    model, params, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    schedule = planner.extract_controls(model, ab, plan)
    traj = sim.simulate_closed_loop(model, ab, schedule, plan.m)
    return model, ab, plan, traj


def test_svg_structure(pair_render_inputs):
    model, ab, plan, traj = pair_render_inputs
    svg = render.render_svg(model, ab.families, ab.decs, plan=plan, traj=traj)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    # one region and one inner circle per agent
    assert svg.count(f'stroke="{render.REGION_STROKE}"') == 2
    assert svg.count(f'stroke="{render.INNER_STROKE}"') == 2
    assert svg.count("stroke-dasharray") == 2
    # one goal frame per declared goal, one path and start dot per agent
    assert svg.count(f'stroke="{render.GOAL_STROKE}"') == 2
    assert svg.count("<polyline") == 2
    assert svg.count(f'fill="{render.START_FILL}"') == 2


def test_cell_layers_match_the_plan(pair_render_inputs):
    model, ab, plan, traj = pair_render_inputs
    svg = render.render_svg(model, ab.families, ab.decs, plan=plan)
    reach = sat = chosen = 0
    for i in model.agent_ids:
        r = set(map(tuple, plan.reachable[i]))
        s = set(map(tuple, plan.satisfying[i]))
        c = set(map(tuple, plan.cells[i]))
        reach += len(r - s)
        sat += len(s - c)
        chosen += len(c)
    assert svg.count(f'fill="{render.REACHABLE_FILL}"') == reach
    assert svg.count(f'fill="{render.SATISFYING_FILL}"') == sat
    assert svg.count(f'fill="{render.PATH_FILL}"') == chosen


def test_grid_background_without_a_plan(pair_render_inputs):
    model, ab, _, _ = pair_render_inputs
    svg = render.render_svg(model, ab.families, ab.decs)
    # only grids below the draw limit are stroked (the follower's is huge)
    cells = sum(
        len(ab.decs[i].index_set)
        for i in model.agent_ids
        if len(ab.decs[i].index_set) <= render.GRID_DRAW_LIMIT
    )
    sizes = [len(ab.decs[i].index_set) for i in model.agent_ids]
    assert min(sizes) <= render.GRID_DRAW_LIMIT < max(sizes)  # both paths exercised
    assert svg.count('stroke="#dddddd"') == cells
    assert render.PATH_FILL not in svg
    assert "<polyline" not in svg


def test_byte_determinism_across_rebuilds(pair_render_inputs):
    model, ab, plan, traj = pair_render_inputs
    first = render.render_svg(model, ab.families, ab.decs, plan=plan, traj=traj)
    again = render.render_svg(model, ab.families, ab.decs, plan=plan, traj=traj)
    assert first == again
    model2, params2, ab2 = make_stack(pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    plan2 = planner.cascade_synthesize(model2, ab2)
    schedule2 = planner.extract_controls(model2, ab2, plan2)
    traj2 = sim.simulate_closed_loop(model2, ab2, schedule2, plan2.m)
    rebuilt = render.render_svg(model2, ab2.families, ab2.decs, plan=plan2, traj=traj2)
    assert rebuilt == first


def test_rejects_non_planar_models():
    doc = {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            {
                "id": 1,
                "dim": 3,
                "neighbors": [],
                "dynamics": {"type": "zero"},
                "v_max": 1.0,
                "M": 0.5,
                "L1": 0.0,
                "L2": 0.0,
                "x0": [0.0, 0.0, 0.0],
            }
        ],
        "spec": {},
    }
    model, params, ab = make_stack(doc)
    with pytest.raises(ModelError, match="planar"):
        render.render_svg(model, ab.families, ab.decs)


def scalar_polyline(frame, points, stroke, width=1.5):
    """_polyline with frame.pt and _fmt per point, one value at a time."""
    coords = []
    for p in points:
        px, py = frame.pt(p)
        coords.append(f"{render._fmt(px)},{render._fmt(py)}")
    return (
        f'<polyline points="{" ".join(coords)}" fill="none" stroke="{stroke}" '
        f'stroke-width="{render._fmt(width)}"/>'
    )


def scalar_rect(frame, lo, hi, fill=None, stroke=None, width=1.0, opacity=None):
    """One rectangle with frame.pt, frame.span and _fmt per value."""
    x, y = frame.pt((lo[0], hi[1]))
    attrs = [
        f'x="{render._fmt(x)}"',
        f'y="{render._fmt(y)}"',
        f'width="{render._fmt(frame.span(hi[0] - lo[0]))}"',
        f'height="{render._fmt(frame.span(hi[1] - lo[1]))}"',
    ]
    attrs.append(f'fill="{fill}"' if fill else 'fill="none"')
    if opacity is not None:
        attrs.append(f'fill-opacity="{opacity}"')
    if stroke:
        attrs.append(f'stroke="{stroke}" stroke-width="{render._fmt(width)}"')
    return "<rect " + " ".join(attrs) + "/>"


# numbers at the rounding edges of %.3f: signed zeros, +-0.0005 and their
# neighbours, values that print as -0.000, and large magnitudes
HALVES = [0.0005, -0.0005, 0.0015, -0.0015, 999.9995, -999.9995]
EDGES = [0.0, -0.0, 1e-300, -1e-300, 1e15, -1e15] + HALVES + [
    math.nextafter(v, toward) for v in HALVES for toward in (math.inf, -math.inf)
]
values = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-0.0006, 0.0006),
    st.floats(-1e15, 1e15),
)


def bare_frame(lo, scale, height):
    """A frame whose pt and span are the identity up to the drawn shift,
    scale and height, so the drawn values reach the formatting as drawn."""
    frame = render._Frame([0.0, 0.0], [1.0, 1.0])
    frame.lo, frame.scale, frame.height = np.array(lo), scale, height
    return frame


frames = st.builds(
    bare_frame,
    st.lists(st.sampled_from([0.0, -0.0, 0.0005, -0.0005]), min_size=2, max_size=2),
    st.sampled_from([1.0, 0.5, 3.0]),
    st.sampled_from([0.0, -0.0, 0.0005, 1e3]),
)


@settings(max_examples=300, deadline=None)
@given(frames, st.lists(st.tuples(values, values), min_size=1, max_size=8))
def test_bulk_polyline_formats_each_point_as_fmt(frame, points):
    points = np.array(points)
    assert render._polyline(frame, points, "#000") == scalar_polyline(frame, points, "#000")


@settings(max_examples=300, deadline=None)
@given(
    frames,
    st.lists(st.tuples(values, values, values, values), min_size=1, max_size=8),
    st.sampled_from([
        {"fill": render.PATH_FILL, "opacity": "0.85"},
        {"stroke": "#dddddd", "width": 0.5},
        {"stroke": render.GOAL_STROKE, "width": -0.0001},
    ]),
)
def test_bulk_rectangles_format_each_value_as_fmt(frame, boxes, style):
    boxes = np.array(boxes)
    lo, hi = boxes[:, :2], boxes[:, 2:]
    expected = "\n".join(scalar_rect(frame, a, b, **style) for a, b in zip(lo, hi))
    assert render._rects(frame, lo, hi, **style) == expected
