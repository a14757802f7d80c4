"""Plan synthesis: windows, layered search, both strategies, and plan I/O."""

import copy
import itertools
import json
import math

import numpy as np
import pytest

import oracles
from horizon_abs import abstraction as abstraction_mod
from horizon_abs import controller, grid, plandoc, planner, wellposed
from horizon_abs.errors import (
    HorizonError,
    ModelError,
    PlanConsistencyError,
    UnsatisfiableError,
)

from conftest import (
    brute_force_good_layers,
    make_model,
    make_stack,
    pair_doc,
    per_combination_product_layers,
    random_instance,
    ring_stack,
    single_doc,
    star_doc,
)


def goal_cells(ab, agent_id):
    return planner.goal_table(ab, agent_id)[0].cells


def test_window_to_steps():
    assert planner.window_to_steps((0.95, 1.0), 1 / 6, 12) == (6, 6)
    assert planner.window_to_steps((0.0, 2.0), 1 / 6, 12) == (0, 12)
    # exact boundaries snap despite rounding in a/dt
    assert planner.window_to_steps((0.5, 0.5), 1 / 6, 12) == (3, 3)
    # windows past the horizon clip to the last step
    assert planner.window_to_steps((1.9, 5.0), 1 / 6, 12) == (12, 12)
    with pytest.raises(UnsatisfiableError, match="no sampling instant"):
        planner.window_to_steps((0.05, 0.12), 1 / 6, 12)
    with pytest.raises(ModelError, match="0 <= a <= b"):
        planner.window_to_steps((0.5, 0.2), 1 / 6, 12)


def test_goal_table(pair_stack):
    model, params, ab = pair_stack
    table = planner.goal_table(ab, 1)
    assert len(table) == 1
    goal = table[0]
    assert (goal.a, goal.b, goal.relative) == (3, 5, False)
    dec = ab.decs[1]
    spec_goal = model.agent(1).goals[0]
    assert goal.cells == frozenset(grid.label_cells(dec, spec_goal.lo, spec_goal.hi))
    assert goal.cells  # the box holds at least one whole cell


def test_plan_length(pair_stack):
    _, _, ab = pair_stack

    def g(a, b, relative):
        return planner.StepGoal(cells=frozenset(), a=a, b=b, relative=relative)

    assert planner.plan_length(ab, {1: [g(0, 4, False)]}) == 4
    assert planner.plan_length(ab, {1: [g(1, 2, True), g(1, 2, True)]}) == 4
    assert planner.plan_length(ab, {1: [g(0, 3, False), g(0, 2, True)]}) == 5
    # capped at the step count (here 5)
    assert planner.plan_length(ab, {1: [g(0, 3, False), g(0, 9, True)]}) == 5
    assert planner.plan_length(ab, {1: [], 2: []}) == 0


def zero_stack_with_chain():
    """Single zero-dynamics agent plus a two-goal relative table."""
    model, params, ab = make_stack(single_doc(), lam={1: 0.55})
    start = grid.locate(ab.decs[1], model.agent(1).x0)
    assert len(ab.post(1, (start,))) > 1  # the search must branch over cells
    first = ab.post(1, (start,))[-1]
    second = ab.post(1, (first,))[-1]
    table = [
        planner.StepGoal(cells=frozenset({first}), a=1, b=2, relative=True),
        planner.StepGoal(cells=frozenset({second}), a=1, b=2, relative=True),
    ]
    return ab, table


def test_layered_search_matches_brute_force():
    ab, table = zero_stack_with_chain()
    m = 4
    parent_cells = [() for _ in range(m + 1)]
    (search,) = planner.forward_layers(ab, [(1, parent_cells, table)], m)
    good = planner.backward_prune(search)
    layers, kept = oracles.state_sets(search), oracles.state_sets(search, good)
    oracle_good, oracle_paths = brute_force_good_layers(ab, 1, parent_cells, table, m)
    for k in range(m + 1):
        assert kept[k] == oracle_good[k]
        assert kept[k] <= layers[k]
    found = list(planner.iter_satisfying_paths(search, good))
    assert [tuple(p) for p in found] == oracle_paths  # lexicographic, no repeats
    assert oracles.pruned_cells(kept) == [
        sorted({l for (l, _, _) in layer}) for layer in kept
    ]


def test_empty_goal_table_keeps_every_full_path():
    ab, _ = zero_stack_with_chain()
    m = 3
    parent_cells = [() for _ in range(m + 1)]
    (search,) = planner.forward_layers(ab, [(1, parent_cells, [])], m)
    good = planner.backward_prune(search)
    oracle_good, oracle_paths = brute_force_good_layers(ab, 1, parent_cells, [], m)
    assert oracles.state_sets(search, good) == oracle_good
    found = [tuple(p) for p in planner.iter_satisfying_paths(search, good)]
    assert found == oracle_paths


def test_topological_order(five_model, pair_stack):
    assert planner.topological_order(five_model) == [3, 2, 4, 1, 5]
    assert planner.topological_order(pair_stack[0]) == [1, 2]


def test_topological_order_none_on_cycle():
    doc = pair_doc()
    doc["agents"][0]["neighbors"] = [2]
    doc["agents"][0]["dynamics"] = {"type": "linear-consensus", "weights": {"2": 1.0}}
    doc["agents"][0]["M"] = 4.0
    doc["agents"][0]["L1"] = 1.0
    doc["agents"][0]["L2"] = 1.0
    model = make_model(doc)
    assert planner.topological_order(model) is None
    with pytest.raises(ModelError, match="cycles"):
        planner.cascade_synthesize(model, None)


def test_cascade_plan_structure(pair_stack):
    model, params, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    assert plan.strategy == "cascade"
    assert plan.m == 5 and plan.steps == 5 and plan.dt == params.dt
    for i in (1, 2):
        cells = plan.cells[i]
        assert len(cells) == plan.m + 1
        assert cells[0] == grid.locate(ab.decs[i], model.agent(i).x0)
        assert len(plan.w[i]) == plan.m and len(plan.targets[i]) == plan.m
        assert plan.explored[i] >= 1
        assert set(cells) <= set(plan.reachable[i])
        assert set(plan.satisfying[i]) <= set(plan.reachable[i])
    # every agent claims its goal at some step inside the window
    for i in (1, 2):
        table = planner.goal_table(ab, i)[0]
        assert any(
            plan.cells[i][k] in table.cells for k in range(table.a, min(table.b, plan.m) + 1)
        )


def test_cascade_transitions_are_post_edges(pair_stack):
    model, _, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    for i in (1, 2):
        agent = model.agent(i)
        for k in range(plan.m):
            config = (plan.cells[i][k],) + tuple(plan.cells[j][k] for j in agent.neighbors)
            assert plan.cells[i][k + 1] in ab.post(i, config)


def loose_pair_doc():
    """The leader-follower pair with a weak coupling, so cells stay coarse."""
    doc = pair_doc()
    follower = doc["agents"][1]
    follower["dynamics"] = {"type": "linear-consensus", "weights": {"1": 0.2}}
    follower["L1"] = 0.2
    follower["L2"] = 0.2
    return doc


def test_product_agrees_with_cascade():
    model, _, ab = make_stack(loose_pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    cascade = planner.cascade_synthesize(model, ab)
    product = planner.product_synthesize(model, ab)
    assert product.strategy == "product"
    # the product search stops at the earliest completing layer
    assert product.m == 3 <= cascade.m
    for i in (1, 2):
        table = planner.goal_table(ab, i)[0]
        assert product.cells[i][product.m] in table.cells
        assert cascade.cells[i][0] == product.cells[i][0]
    planner.extract_controls(model, ab, product)


def count_endpoint_batches(monkeypatch):
    """Record controller.reference_endpoints calls, one per integrated batch,
    each as the agent ids of its rows."""
    calls = []
    real = controller.reference_endpoints

    def counted(agents, *args, **kwargs):
        calls.append([agent.id for agent in agents])
        return real(agents, *args, **kwargs)

    monkeypatch.setattr(controller, "reference_endpoints", counted)
    return calls


@pytest.mark.parametrize("stack", ["loose_pair", "ring"])
def test_product_search_matches_the_per_combination_oracle(stack):
    if stack == "ring":
        model, _, ab = ring_stack(seed=1)
    else:
        model, _, ab = make_stack(loose_pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    plan = planner.product_synthesize(model, ab)
    layers, generated, chosen = per_combination_product_layers(model, ab)
    assert plan.m == len(layers) - 1
    assert plan.cells == {i: [tuple(c) for c in path] for i, path in chosen.items()}
    assert plan.explored == {i: generated for i in model.agent_ids}
    for a, i in enumerate(model.agent_ids):
        assert plan.reachable[i] == sorted({n[0][a] for layer in layers for n in layer})


def layers_beside_the_oracle(monkeypatch):
    """Run oracles.product_successors beside planner._product_successors on
    the inputs of every layer; record both results per layer."""
    layers = []
    real = planner._product_successors

    def both(*args):
        layers.append((real(*args), oracles.product_successors(*args)))
        return layers[-1][0]

    monkeypatch.setattr(planner, "_product_successors", both)
    return layers


def product_case(case):
    if case.startswith("ring"):
        return ring_stack(seed=int(case[-1]))
    doc = loose_pair_doc()
    if case == "empty_spec":
        doc["spec"] = {}
    return make_stack(doc, lam={1: 0.55, 2: 0.55}, steps=5)


@pytest.mark.parametrize(
    "case, block",
    [("ring1", None), ("ring2", None), ("ring3", None), ("loose_pair", None),
     ("empty_spec", None), ("ring1", 64), ("ring1", 1 << 20), ("loose_pair", 5)],
)
def test_product_layers_match_the_pick_by_pick_oracle(case, block, monkeypatch):
    """Every layer maps each successor to the same first parent as the loop
    over every pick, in the same order, whether a layer is coded in one
    block of nodes or in many."""
    if block is not None:
        monkeypatch.setattr(planner, "_PICK_BLOCK", block)
    model, _, ab = product_case(case)
    layers = layers_beside_the_oracle(monkeypatch)
    plan = planner.product_synthesize(model, ab)
    assert len(layers) == plan.m
    for got, expected in layers:
        assert len(got) == len(expected) == 3
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    if case == "ring1":
        assert plan.explored == {1: 7912, 2: 7912, 3: 7912}
    if case == "empty_spec":
        assert plan.m == 0


@pytest.mark.parametrize("cap", [0, 1, 500, 7911])
def test_a_capped_product_search_fails_as_the_oracle_does(cap, monkeypatch):
    """Ring seed 1 holds 1, 96, 1134 and 6681 nodes in its four layers, so
    these caps trip in layers 0, 1, 2 and 3.  The pick-by-pick loop stops
    inside a layer, the coded search at the end of a block of nodes, with
    the same error."""
    model, _, ab = ring_stack(seed=1)
    errors = []
    for successors in (planner._product_successors, oracles.product_successors):
        monkeypatch.setattr(planner, "_product_successors", successors)
        with pytest.raises(planner.CapExceededError) as info:
            planner.product_synthesize(model, ab, cap=cap)
        errors.append(str(info.value))
    assert errors == [f"product search exceeded the state cap {cap}"] * 2


def test_pick_codes_do_not_overflow():
    """Slot radices whose product passes 2**63: wrapped int64 mixed-radix
    codes would give (1, 0, 0) the code of (0, 0, 0); ranked codes do not,
    and codes from different calls of one coder compare."""
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [2, 5, 7], [1, 0, 0]])
    codes = planner._PickCoder([2**32] * 3, len(rows))(list(rows.T))
    assert codes.dtype == np.int64
    assert [codes[0] == c for c in codes] == [True, False, True, False, False]
    assert codes[1] == codes[4] != codes[3]
    rng = np.random.default_rng(7)
    radices = [2**21, 3, 2**40, 2**13, 5]
    rows = np.stack([rng.integers(0, min(r, 4), 2000) for r in radices], axis=1)
    coder = planner._PickCoder(radices, len(rows))
    codes = np.concatenate([coder(list(part.T)) for part in np.split(rows, [700, 1500])])
    _, by_row = np.unique(rows, axis=0, return_inverse=True)
    _, by_code = np.unique(codes, return_inverse=True)
    # the same partition of the rows: equal codes exactly for equal rows
    assert np.array_equal(by_row.ravel(), by_code)
    assert planner._blocks([3, 0, 5, 1, 0], 4) == [(0, 3), (3, 5)]


def test_product_search_integrates_once_per_agent_and_layer(monkeypatch):
    model, _, ab = make_stack(loose_pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)
    calls = count_endpoint_batches(monkeypatch)
    plan = planner.product_synthesize(model, ab)
    # layers 0 .. m-1 were expanded; each integrates every agent in one batch
    assert 1 <= len(calls) <= plan.m
    assert {i for rows in calls for i in rows} == set(model.agent_ids)


def test_ring_workload_keeps_its_shape(monkeypatch):
    """The benchmark's ring_product workload (seed 1) keeps its search size,
    and its Posts arrive in one batch per layer, for every agent."""
    model, _, ab = ring_stack(seed=1)
    tables = {i: planner.goal_table(ab, i) for i in model.agent_ids}
    m_max = planner.plan_length(ab, tables)
    calls = count_endpoint_batches(monkeypatch)
    plan = planner.product_synthesize(model, ab)
    assert plan.strategy == "product"
    assert plan.explored == {1: 7912, 2: 7912, 3: 7912}
    assert len(calls) <= min(plan.m, m_max)
    assert all(set(rows) == set(model.agent_ids) for rows in calls)


@pytest.mark.parametrize("size", [5, 10, 20])
def test_star_search_works_per_layer_not_per_state(size, monkeypatch):
    """A star of 4, 9 or 19 followers around one leader searches 3,828,
    7,780 and 15,652 states.  Its Posts still come in 22 endpoint
    batches, and the search makes no per-state call: one reference_point
    per agent slot and batch at most, and one CellSet membership test per
    parent cell and layer plus one per agent's start cell."""
    model = make_model(star_doc(size))
    ab = abstraction_mod.build_abstraction(model, wellposed.synthesize(model, steps=12))
    batches = count_endpoint_batches(monkeypatch)
    counts = {}
    for owner, name in [
        (grid, "reference_point"),
        (grid.CellSet, "__contains__"),
    ]:
        def counted(*args, real=getattr(owner, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    plan = planner.cascade_synthesize(model, ab)
    assert plan.m == 12 and len(batches) == 22
    assert counts["reference_point"] <= 2 * size * (plan.m + 1)
    assert counts["__contains__"] == (size - 1) * plan.m + size


def backtracking_pair_doc():
    """The pair with the follower's goal on one cell at the last step.  The
    leader's first two satisfying paths keep the follower out of that
    cell, so the cascade backtracks to the leader's third path."""
    doc = pair_doc()
    doc["spec"]["2"]["goals"] = [
        {"box": [[-0.164, 1.089], [-0.073, 1.179]], "window": [0.9, 1.0], "relative": False}
    ]
    return doc


def twin_stacks(case, five_model, five_params):
    """Two abstractions of one model that share no cache."""
    if case == "five_agents":
        return five_model, [
            abstraction_mod.build_abstraction(five_model, five_params) for _ in range(2)
        ]
    doc = pair_doc() if case == "pair" else backtracking_pair_doc()
    model, params, ab = make_stack(doc, lam={1: 0.55, 2: 0.55}, steps=5)
    return model, [ab, abstraction_mod.build_abstraction(model, params)]


@pytest.mark.parametrize("case", ["five_agents", "pair", "backtracking"])
def test_lockstep_cascade_matches_the_sequential_cascade(case, five_model, five_params):
    model, (ab, alone) = twin_stacks(case, five_model, five_params)
    plan = planner.cascade_synthesize(model, ab)
    expected = oracles.sequential_cascade(model, alone)
    assert plan.cells == expected.cells
    assert plan.explored == expected.explored
    assert plan.reachable == expected.reachable
    assert plan.satisfying == expected.satisfying
    for i in model.agent_ids:
        assert all(np.array_equal(a, b) for a, b in zip(plan.w[i], expected.w[i]))
    if case == "backtracking":
        assert plan.explored == {1: 3, 2: 1}


def test_five_agents_cascade_integrates_in_lockstep(five_model, five_params, monkeypatch):
    """Agents whose parents are chosen advance together: {3}, then {2, 4},
    then {1, 5}, so the cascade makes at most 3m endpoint batches, fewer
    than one agent at a time, over the same rows."""
    model, (ab, alone) = twin_stacks("five_agents", five_model, five_params)
    calls = count_endpoint_batches(monkeypatch)
    plan = planner.cascade_synthesize(model, ab)
    lockstep = list(calls)
    calls.clear()
    oracles.sequential_cascade(model, alone)
    assert len(lockstep) <= 3 * plan.m < len(calls)
    assert sorted(i for rows in lockstep for i in rows) == sorted(i for rows in calls for i in rows)
    assert {frozenset(rows) for rows in lockstep} == {
        frozenset({3}), frozenset({2, 4}), frozenset({1, 5})
    }


def failing_agent_4_doc(five_model):
    """five_agents with a field for agent 4 that fails on every state."""
    doc = json.loads(json.dumps(five_model.raw))
    for agent in doc["agents"]:
        if agent["id"] == 4:
            agent["dynamics"] = {
                "type": "expression", "exprs": ["sqrt(-1 - x_i[1]*x_i[1]) + 0*x_j1[1]", "0"],
            }
    return doc


@pytest.mark.parametrize("starved", [False, True])
def test_an_error_ahead_of_its_turn_waits_for_it(starved, five_model, five_params):
    """Agent 4 advances in lockstep with agent 2 and fails at once.  Its
    error is raised when its turn comes, as one agent at a time raises it;
    when agent 2 can never claim its first goal, that turn never comes and
    the cascade ends unsatisfiable instead."""
    doc = failing_agent_4_doc(five_model)
    if starved:
        doc["spec"]["2"]["goals"][0]["box"] = [[50.0, 50.0], [51.0, 51.0]]
    model = make_model(doc)
    errors = []
    for synthesize in (planner.cascade_synthesize, oracles.sequential_cascade):
        ab = abstraction_mod.build_abstraction(model, five_params)
        with pytest.raises(HorizonError) as info:
            synthesize(model, ab, budget=2)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    if starved:
        assert errors[0] == (UnsatisfiableError, (
            "cascade synthesis failed (agent 2: goal 1 was never claimable inside its "
            "window; agent 3: every tried path starves a downstream agent)"
        ))
    else:
        assert errors[0][1].startswith("agent 4: sqrt of negative value -")


def far_goal_doc(five_model):
    """five_agents with agent 3 on a singular expression field and agent
    1's goal box moved 30 along both axes, out of its reach: agent 1
    never has a satisfying path, whatever its parent 2 chose."""
    doc = json.loads(json.dumps(five_model.raw))
    for agent in doc["agents"]:
        if agent["id"] == 3:
            agent["dynamics"] = {"type": "expression", "exprs": ["1/(x_i[1]-2)", "0"]}
    for goal in doc["spec"]["1"]["goals"]:
        goal["box"] = [[v + 30 for v in corner] for corner in goal["box"]]
    return doc


def test_cascade_backjumps_over_agents_the_failure_does_not_rest_on(five_model, monkeypatch):
    """Agent 1's failure rests on its parent 2 alone, so it returns to 2
    and skips agent 4's other paths: agents 3, 2, 4 and 1 are pruned
    1, 4, 16 and 16 times (not 64 for agent 1), in 9 forward passes, one
    per (agent, parent paths), with the verdict of chronological
    backtracking."""
    model, params, ab = make_stack(far_goal_doc(five_model), lam={1: 0.35, 5: 0.35}, steps=12)
    with pytest.raises(UnsatisfiableError) as expected:
        oracles.sequential_cascade(
            model, abstraction_mod.build_abstraction(model, params), budget=4
        )
    calls = {"forward": 0}
    forward, prune = planner.forward_layers, planner.backward_prune

    def counted_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    def counted_prune(search):
        calls[search.agent_id] = calls.get(search.agent_id, 0) + 1
        return prune(search)

    monkeypatch.setattr(planner, "forward_layers", counted_forward)
    monkeypatch.setattr(planner, "backward_prune", counted_prune)
    with pytest.raises(UnsatisfiableError) as info:
        planner.cascade_synthesize(model, ab, budget=4)
    assert calls == {"forward": 9, 3: 1, 2: 4, 4: 16, 1: 16}
    assert str(info.value) == str(expected.value)
    assert str(info.value) == (
        "cascade synthesis failed (agent 1: goal 1 was never claimable inside its window; "
        "agent 2: every tried path starves a downstream agent; agent 3: every tried path "
        "starves a downstream agent; agent 4: every tried path starves a downstream agent)"
    )


def test_product_cap(pair_stack):
    model, _, ab = pair_stack
    assert issubclass(planner.CapExceededError, UnsatisfiableError)
    with pytest.raises(planner.CapExceededError, match="state cap"):
        planner.product_synthesize(model, ab, cap=1)


def test_empty_spec_yields_length_zero_plans():
    doc = pair_doc()
    doc["spec"] = {}
    model, params, ab = make_stack(doc, lam={1: 0.55, 2: 0.55}, steps=5)
    for plan in (
        planner.cascade_synthesize(model, ab),
        planner.product_synthesize(model, ab),
    ):
        assert plan.m == 0
        assert all(len(cells) == 1 for cells in plan.cells.values())
        schedule = planner.extract_controls(model, ab, plan)
        assert all(steps == [] for steps in schedule.values())


def test_unsatisfiable_goal_box(pair_stack):
    _, params, _ = pair_stack
    doc = pair_doc()
    doc["spec"]["1"]["goals"][0]["box"] = [[40.0, 40.0], [41.0, 41.0]]
    bad = make_model(doc)
    rebuilt = abstraction_mod.build_abstraction(bad, params)
    with pytest.raises(UnsatisfiableError, match="agent 1: goal 1 was never claimable"):
        planner.cascade_synthesize(bad, rebuilt)


def test_unsatisfiable_window(pair_stack):
    _, params, _ = pair_stack
    doc = pair_doc()
    doc["spec"]["1"]["goals"][0]["window"] = [0.45, 0.55]  # between instants at dt=0.2
    bad = make_model(doc)
    rebuilt = abstraction_mod.build_abstraction(bad, params)
    with pytest.raises(UnsatisfiableError, match="no sampling instant"):
        planner.cascade_synthesize(bad, rebuilt)


def test_extract_controls_cross_checks(pair_stack):
    model, _, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    schedule = planner.extract_controls(model, ab, plan)
    for i in (1, 2):
        assert len(schedule[i]) == plan.m
        for k, step in enumerate(schedule[i]):
            assert step.target == plan.cells[i][k + 1]
            assert np.array_equal(step.w, np.asarray(plan.w[i][k]))

    mutated = copy.deepcopy(plan)
    mutated.w[2][0] = mutated.w[2][0] + 0.1
    with pytest.raises(PlanConsistencyError, match="stored w disagrees"):
        planner.extract_controls(model, ab, mutated)

    shifted = copy.deepcopy(plan)
    shifted.cells[1][0] = (shifted.cells[1][0][0] + 5, shifted.cells[1][0][1])
    with pytest.raises(PlanConsistencyError, match="plan starts at"):
        planner.extract_controls(model, ab, shifted)

    rerouted = copy.deepcopy(plan)
    far = max(ab.decs[2].index_set)
    rerouted.cells[2][1] = far
    with pytest.raises(PlanConsistencyError, match="is not a successor"):
        planner.extract_controls(model, ab, rerouted)

    truncated = copy.deepcopy(plan)
    truncated.cells[1] = truncated.cells[1][:-1]
    with pytest.raises(PlanConsistencyError, match="lists"):
        planner.extract_controls(model, ab, truncated)

    # a moved, NaN or wrongly shaped target disagrees
    for target in (plan.targets[2][0] + 1e-6, [math.nan, 0.0], [5.0, 5.0], [5.0]):
        retargeted = copy.deepcopy(plan)
        retargeted.targets[2][0] = np.asarray(target, dtype=float)
        with pytest.raises(PlanConsistencyError, match="stored target disagrees"):
            planner.extract_controls(model, ab, retargeted)


def test_plan_doc_round_trip(pair_stack):
    model, _, ab = pair_stack
    plan = planner.cascade_synthesize(model, ab)
    plan.model_hash = "0123abcd"
    doc = json.loads(json.dumps(plandoc.plan_to_doc(plan)))
    back = plandoc.plan_from_doc(doc)
    assert (back.m, back.dt, back.steps) == (plan.m, plan.dt, plan.steps)
    assert back.strategy == plan.strategy
    assert back.model_hash == plan.model_hash
    assert back.explored == plan.explored
    for i in (1, 2):
        assert back.cells[i] == [tuple(c) for c in plan.cells[i]]
        assert back.reachable[i] == [tuple(c) for c in plan.reachable[i]]
        assert back.satisfying[i] == [tuple(c) for c in plan.satisfying[i]]
        for k in range(plan.m):
            assert np.array_equal(back.w[i][k], np.asarray(plan.w[i][k]))
            assert np.array_equal(back.targets[i][k], np.asarray(plan.targets[i][k]))


def test_plan_from_doc_rejects_malformed():
    with pytest.raises(PlanConsistencyError, match="malformed plan document"):
        plandoc.plan_from_doc({"m": 1})
    with pytest.raises(PlanConsistencyError, match="malformed plan document"):
        plandoc.plan_from_doc({"m": 1, "dt": 0.1, "steps": 2, "agents": {"1": {}}})


def oracle_cases(case, five_model):
    """(model, params, budget) of one cascade compared with the tuple oracle."""
    lam_five = {1: 0.35, 5: 0.35}
    if case == "five_agents":
        return five_model, wellposed.synthesize(five_model, lam=lam_five, steps=12), 64
    if case == "far_goal":
        model = make_model(far_goal_doc(five_model))
        return model, wellposed.synthesize(model, lam=lam_five, steps=12), 2
    if case == "failing_agent_4":
        model = make_model(failing_agent_4_doc(five_model))
        return model, wellposed.synthesize(model, lam=lam_five, steps=12), 2
    if case.startswith("star"):
        model = make_model(star_doc(int(case[4:])))
        return model, wellposed.synthesize(model, steps=12), 64
    if case.startswith("random"):
        _, model, params, _ = random_instance(np.random.default_rng(int(case[6:])))
        return model, params, 64
    doc = pair_doc() if case == "pair" else backtracking_pair_doc()
    model = make_model(doc)
    return model, wellposed.synthesize(model, lam={1: 0.55, 2: 0.55}, steps=5), 64


def outcome(synthesize, model, ab, budget):
    """A cascade's plan lists, or the type and text of its error."""
    try:
        plan = synthesize(model, ab, budget=budget)
    except HorizonError as e:
        return type(e), str(e)
    return plan.cells, plan.explored, plan.reachable, plan.satisfying


@pytest.mark.parametrize("case", [
    "five_agents", "pair", "backtracking", "star5", "star10", "random0", "random1",
    "random2", "far_goal", "failing_agent_4",
])
def test_array_cascade_matches_the_tuple_oracle(case, five_model, monkeypatch):
    """Every forward pass the cascade makes, per agent and layer, holds the
    states of the tuple-set search it replaced (oracles.forward_layers);
    its pruned states, its first ``budget`` paths or its error are the
    oracle's too.  The whole cascade gives the plan, the paths tried and
    the verdict of the tuple-set sequential cascade."""
    model, params, budget = oracle_cases(case, five_model)
    ab, twin = (abstraction_mod.build_abstraction(model, params) for _ in range(2))
    passes = []
    forward = planner.forward_layers

    def recorded(ab, jobs, m):
        out = forward(ab, jobs, m)
        passes.extend((job, m, result) for job, result in zip(jobs, out))
        return out

    monkeypatch.setattr(planner, "forward_layers", recorded)
    got = outcome(planner.cascade_synthesize, model, ab, budget)
    assert got == outcome(oracles.sequential_cascade, model, twin, budget)
    assert passes
    for (i, parent_cells, table), m, search in passes:
        (layers,) = oracles.forward_layers(twin, [(i, parent_cells, table)], m)
        if isinstance(search, HorizonError):
            assert (type(layers), str(layers)) == (type(search), str(search))
            continue
        assert search.agent_id == i and oracles.state_sets(search) == layers
        good = planner.backward_prune(search)
        expected = oracles.backward_prune(twin, i, parent_cells, table, m, layers)
        assert oracles.state_sets(search, good) == expected
        paths = planner.iter_satisfying_paths(search, good)
        oracle_paths = oracles.iter_satisfying_paths(twin, i, parent_cells, table, m, expected)
        assert list(itertools.islice(paths, budget)) == list(
            itertools.islice(oracle_paths, budget)
        )
        if not good[0].any():
            assert planner._first_failing_goal(search) == oracles.first_failing_goal(
                layers, table
            )
