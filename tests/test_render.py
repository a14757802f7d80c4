"""SVG rendering: structure, layer counts, and byte determinism."""

import pytest

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
