"""Plan synthesis under bounded timed-reachability goals.

Goals are ordered per agent; each goal is an axis-aligned box that must
be occupied at a sampling instant whose step index falls in a window.
Windows are measured either from the previous goal's satisfaction step
(relative, the default) or from time zero (absolute).  Only sampling
instants count: the abstraction certifies cell membership at multiples
of the time step and nothing in between.

Synthesis state is (cell, goals claimed, step of the last claim); a
claim is optional whenever a cell satisfies the pending goal inside the
window, so the search explores both claiming and waiting.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import ModelError, PlanConsistencyError, UnsatisfiableError


class CapExceededError(UnsatisfiableError):
    """Product search frontier outgrew the configured state cap."""


def window_to_steps(window, dt, steps):
    """Step indices k with k*dt inside [a, b]; errors when none exist."""
    a, b = window
    if not 0 <= a <= b:
        raise ModelError(f"window must satisfy 0 <= a <= b, got {window}")
    a_step = max(0, math.ceil(a / dt - 1e-9))
    b_step = min(steps, math.floor(b / dt + 1e-9))
    if a_step > b_step:
        raise UnsatisfiableError(
            f"no sampling instant falls inside the window [{a}, {b}] at dt={dt}"
        )
    return a_step, b_step


@dataclass(frozen=True)
class StepGoal:
    cells: frozenset
    a: int
    b: int
    relative: bool


def goal_table(abstraction, agent_id):
    """Translate an agent's goals into step windows over labeled cells."""
    agent = abstraction.model.agent(agent_id)
    dec = abstraction.decs[agent_id]
    table = []
    for goal in agent.goals:
        a, b = window_to_steps(goal.window, abstraction.params.dt, abstraction.params.steps)
        cells = frozenset(grid.label_cells(dec, goal.lo, goal.hi))
        table.append(StepGoal(cells=cells, a=a, b=b, relative=goal.relative))
    return table


def plan_length(abstraction, tables):
    """Common plan length: latest step any agent may need, capped at the horizon."""
    worst = 0
    for table in tables.values():
        running = 0
        for g in table:
            running = g.b if not g.relative else running + g.b
            worst = max(worst, running)
    return min(worst, abstraction.params.steps)


def _advance(cell, progress, step, table):
    """All claim chains available on arrival: wait, or claim pending goals."""
    out = set()
    stack = [progress]
    while stack:
        g, s = stack.pop()
        if (g, s) in out:
            continue
        out.add((g, s))
        if g < len(table):
            goal = table[g]
            base = s if goal.relative else 0
            if cell in goal.cells and goal.a <= step - base <= goal.b:
                stack.append((g + 1, step))
    return out

def _alive(progress, step, table, m):
    """Whether the pending goal can still be claimed by step m."""
    g, s = progress
    if g >= len(table):
        return True
    goal = table[g]
    base = s if goal.relative else 0
    return step - base <= goal.b and base + goal.a <= m


def _claim_options(cell, progress, step, table, m):
    """Sorted claim chains on arrival at step that can still complete by m."""
    return sorted(p for p in _advance(cell, progress, step, table) if _alive(p, step, table, m))


def forward_layers(abstraction, agent_id, parent_cells, table, m, start_cell=None):
    """Per-step sets of (cell, claimed, last-claim-step) reachable states.

    ``parent_cells[k]`` is the tuple of neighbor cells during interval k,
    aligned with the agent's declared neighbor order.  Non-initiating
    cells are retained but never expanded.
    """
    dec = abstraction.decs[agent_id]
    if start_cell is None:
        start_cell = grid.locate(dec, abstraction.model.agent(agent_id).x0)
    layers = [set() for _ in range(m + 1)]
    layers[0] = {
        (start_cell, g, s)
        for (g, s) in _advance(start_cell, (0, 0), 0, table)
        if _alive((g, s), 0, table, m)
    }
    for k in range(m):
        parents = tuple(parent_cells[k])
        grouped = {}
        for (l, g, s) in layers[k]:
            if abstraction.is_initiating(agent_id, (l,) + parents):
                grouped.setdefault(l, set()).add((g, s))
        if grouped:
            configs = [(l,) + parents for l in sorted(grouped)]
            abstraction.post_many(agent_id, configs)
            nxt = set()
            for l in sorted(grouped):
                succ = abstraction.post(agent_id, (l,) + parents)
                for l2 in succ:
                    for prog in grouped[l]:
                        for prog2 in _advance(l2, prog, k + 1, table):
                            if _alive(prog2, k + 1, table, m):
                                nxt.add((l2, prog2[0], prog2[1]))
            layers[k + 1] = nxt
    return layers


def backward_prune(abstraction, agent_id, parent_cells, table, m, layers):
    """States on at least one goal-satisfying path of length m."""
    G = len(table)
    good = [set() for _ in range(m + 1)]
    good[m] = {(l, g, s) for (l, g, s) in layers[m] if g == G}
    for k in range(m - 1, -1, -1):
        by_cell = {}
        for (l2, g2, s2) in good[k + 1]:
            by_cell.setdefault(l2, set()).add((g2, s2))
        if not by_cell:
            continue
        parents = tuple(parent_cells[k])
        for (l, g, s) in layers[k]:
            config = (l,) + parents
            if not abstraction.is_initiating(agent_id, config):
                continue
            for l2 in abstraction.post(agent_id, config):
                progs = by_cell.get(l2)
                if progs and _advance(l2, (g, s), k + 1, table) & progs:
                    good[k].add((l, g, s))
                    break
    return good


def pruned_cells(good):
    return [sorted({l for (l, _, _) in layer}) for layer in good]


def iter_satisfying_paths(abstraction, agent_id, parent_cells, table, m, good):
    """Cell paths in lexicographic order, each yielded exactly once."""
    if not good[0]:
        return
    start_cell = next(iter(good[0]))[0]
    by_cell_layers = []
    for layer in good:
        by_cell = {}
        for (l, g, s) in layer:
            by_cell.setdefault(l, set()).add((g, s))
        by_cell_layers.append(by_cell)

    def rec(k, cell, states, prefix):
        if k == m:
            yield list(prefix)
            return
        succ = abstraction.post(agent_id, (cell,) + tuple(parent_cells[k]))
        for l2 in succ:
            progs = by_cell_layers[k + 1].get(l2)
            if not progs:
                continue
            reach = set()
            for prog in states:
                reach |= _advance(l2, prog, k + 1, table)
            compatible = reach & progs
            if compatible:
                prefix.append(l2)
                yield from rec(k + 1, l2, compatible, prefix)
                prefix.pop()

    yield from rec(0, start_cell, set(by_cell_layers[0][start_cell]), [start_cell])


def _first_failing_goal(layers, table):
    best = -1
    for layer in layers:
        for (_, g, _) in layer:
            best = max(best, g)
    if best < len(table):
        return f"goal {best + 1} was never claimable inside its window"
    return "goals are claimable but no path of the full plan length survives"


@dataclass
class Plan:
    m: int
    dt: float
    steps: int
    cells: dict
    w: dict
    targets: dict
    strategy: str
    explored: dict
    reachable: dict
    satisfying: dict
    model_hash: str = None


def topological_order(model):
    """Agents with all coupling parents before them; None when cyclic."""
    remaining = {a.id: set(a.neighbors) for a in model.agents}
    order = []
    while remaining:
        ready = sorted(i for i, deps in remaining.items() if not deps)
        if not ready:
            return None
        for i in ready:
            order.append(i)
            del remaining[i]
        for deps in remaining.values():
            deps.difference_update(ready)
    return order


def cascade_synthesize(model, abstraction, budget=64):
    """Topological per-agent synthesis with bounded parent backtracking."""
    order = topological_order(model)
    if order is None:
        raise ModelError(
            "the coupling graph has cycles; cascade synthesis needs a DAG "
            "(use the product strategy)"
        )
    tables = {i: goal_table(abstraction, i) for i in model.agent_ids}
    m = plan_length(abstraction, tables)
    explored = {i: 0 for i in model.agent_ids}
    reachable = {}
    satisfying = {}
    chosen = {}
    failure = {}

    def parent_cells_for(i):
        agent = model.agent(i)
        return [tuple(chosen[j][k] for j in agent.neighbors) for k in range(m + 1)]

    def solve(idx):
        if idx == len(order):
            return True
        i = order[idx]
        parent_cells = parent_cells_for(i)
        layers = forward_layers(abstraction, i, parent_cells, tables[i], m)
        good = backward_prune(abstraction, i, parent_cells, tables[i], m, layers)
        reachable[i] = sorted({l for layer in layers for (l, _, _) in layer})
        satisfying[i] = sorted({l for layer in good for (l, _, _) in layer})
        if not good[0]:
            failure[i] = _first_failing_goal(layers, tables[i])
            return False
        paths = iter_satisfying_paths(abstraction, i, parent_cells, tables[i], m, good)
        for path in itertools.islice(paths, budget):
            explored[i] += 1
            chosen[i] = path
            if solve(idx + 1):
                return True
        chosen.pop(i, None)
        failure.setdefault(i, "every tried path starves a downstream agent")
        return False

    if not solve(0):
        detail = "; ".join(f"agent {i}: {msg}" for i, msg in sorted(failure.items()))
        raise UnsatisfiableError(f"cascade synthesis failed ({detail})")
    return _assemble_plan(
        model, abstraction, chosen, m, "cascade", explored, reachable, satisfying
    )


def product_synthesize(model, abstraction, cap=10**6):
    """Layered breadth-first search over the synchronized product."""
    ids = model.agent_ids
    tables = {i: goal_table(abstraction, i) for i in ids}
    m_max = plan_length(abstraction, tables)
    start_cells = tuple(
        grid.locate(abstraction.decs[i], model.agent(i).x0) for i in ids
    )
    init_progress = [
        _claim_options(start_cells[a], (0, 0), 0, tables[i], m_max)
        for a, i in enumerate(ids)
    ]
    layer = {}
    for combo in itertools.product(*init_progress):
        layer[(start_cells, tuple(combo))] = None
    parents = [layer]
    generated = len(layer)

    def complete(node):
        cells, progress = node
        return all(progress[k][0] == len(tables[i]) for k, i in enumerate(ids))

    for k in range(m_max + 1):
        current = sorted(parents[k])
        for node in current:
            if complete(node):
                return _reconstruct_product(
                    model, abstraction, parents, k, node, tables, generated
                )
        if k == m_max:
            break
        expandable = [
            node for node in current
            if all(node[0][a] in abstraction.decs[i].initiating_set for a, i in enumerate(ids))
        ]
        # one batched Post request per agent; row r belongs to expandable[r]
        assignments = [dict(zip(ids, cells)) for cells, _ in expandable]
        posts = [
            abstraction.post_many(i, [grid.pr(model, cells, i) for cells in assignments])
            for i in ids
        ]
        # with k fixed, the claim options depend only on (agent slot, cell, progress)
        options = {}

        def claim_options(a, cell, prog):
            key = (a, cell, prog)
            if key not in options:
                options[key] = _claim_options(cell, prog, k + 1, tables[ids[a]], m_max)
            return options[key]

        nxt = {}
        for node, node_posts in zip(expandable, zip(*posts)):
            progress = node[1]
            # each agent's (successor cell, claim option) pairs; their product
            # is the set of synchronized successor nodes
            choices = [
                [(l2, p) for l2 in succ for p in claim_options(a, l2, progress[a])]
                for a, succ in enumerate(node_posts)
            ]
            for pick in itertools.product(*choices):
                nxt_node = tuple(zip(*pick))
                if nxt_node not in nxt:
                    nxt[nxt_node] = node
                    generated += 1
                    if generated > cap:
                        raise CapExceededError(
                            f"product search exceeded the state cap {cap}"
                        )
        parents.append(nxt)
    raise UnsatisfiableError(
        f"no product path of length at most {m_max} satisfies every agent"
    )


def _reconstruct_product(model, abstraction, parents, k, node, tables, generated):
    ids = model.agent_ids
    chain = [node]
    for layer_idx in range(k, 0, -1):
        chain.append(parents[layer_idx][chain[-1]])
    chain.reverse()
    chosen = {
        i: [step[0][a] for step in chain] for a, i in enumerate(ids)
    }
    reachable = {
        i: sorted({n[0][a] for layer in parents for n in layer}) for a, i in enumerate(ids)
    }
    explored = {i: generated for i in ids}
    return _assemble_plan(
        model, abstraction, chosen, k, "product", explored, reachable, dict(reachable)
    )


def _assemble_plan(model, abstraction, chosen, m, strategy, explored, reachable, satisfying):
    cells = {i: [tuple(c) for c in chosen[i]] for i in model.agent_ids}
    w = {}
    targets = {}
    for i in model.agent_ids:
        agent = model.agent(i)
        w[i] = []
        targets[i] = []
        for k in range(m):
            config = (cells[i][k],) + tuple(cells[j][k] for j in agent.neighbors)
            action = abstraction.successor_action(i, config, cells[i][k + 1])
            w[i].append(action.w)
            targets[i].append(action.point)
    return Plan(
        m=m,
        dt=abstraction.params.dt,
        steps=abstraction.params.steps,
        cells=cells,
        w=w,
        targets=targets,
        strategy=strategy,
        explored=explored,
        reachable=reachable,
        satisfying=dict(satisfying),
    )


@dataclass(frozen=True, eq=False)
class StepControl:
    config: tuple
    target: tuple
    w: np.ndarray
    point: np.ndarray


def check_plan_lists(model, plan):
    """Every model agent is in the plan with m + 1 cells and m parameters."""
    for i in model.agent_ids:
        if i not in plan.cells or i not in plan.w:
            raise PlanConsistencyError(f"agent {i}: missing from the plan")
        if len(plan.cells[i]) != plan.m + 1:
            raise PlanConsistencyError(
                f"agent {i}: plan lists {len(plan.cells[i])} cells for {plan.m} steps"
            )
        if len(plan.w[i]) != plan.m:
            raise PlanConsistencyError(
                f"agent {i}: plan lists {len(plan.w[i])} parameters for {plan.m} steps"
            )


def extract_controls(model, abstraction, plan):
    """Re-derive and cross-check the per-step controller parameters of a plan."""
    # every agent's lists first: a configuration reads its neighbors' cells
    check_plan_lists(model, plan)
    schedule = {}
    for i in model.agent_ids:
        agent = model.agent(i)
        dec = abstraction.decs[i]
        cells = plan.cells[i]
        start = grid.locate(dec, agent.x0)
        if tuple(cells[0]) != start:
            raise PlanConsistencyError(
                f"agent {i}: plan starts at {cells[0]} but the initial state is in {start}"
            )
        configs = [
            (tuple(cells[k]),) + tuple(tuple(plan.cells[j][k]) for j in agent.neighbors)
            for k in range(plan.m)
        ]
        # one batched integration; a non-initiating configuration fails at its step below
        abstraction.post_many(i, [c for c in configs if abstraction.is_initiating(i, c)])
        steps = []
        for k, config in enumerate(configs):
            target = tuple(cells[k + 1])
            succ = abstraction.post(i, config)
            if target not in succ:
                raise PlanConsistencyError(
                    f"agent {i}, step {k}: {target} is not a successor of {config}"
                )
            action = abstraction.successor_action(i, config, target)
            stored_w = np.asarray(plan.w[i][k], dtype=float)
            if np.max(np.abs(stored_w - action.w)) > 1e-9 * max(1.0, agent.v_max):
                raise PlanConsistencyError(
                    f"agent {i}, step {k}: stored w disagrees with the re-derived value"
                )
            steps.append(
                StepControl(config=config, target=target, w=action.w, point=action.point)
            )
        schedule[i] = steps
    return schedule


def plan_to_doc(plan):
    doc = {
        "m": plan.m,
        "dt": plan.dt,
        "steps": plan.steps,
        "strategy": plan.strategy,
        "model_hash": plan.model_hash,
        "explored": {str(i): n for i, n in sorted(plan.explored.items())},
        "agents": {},
    }
    for i in sorted(plan.cells):
        doc["agents"][str(i)] = {
            "cells": [list(c) for c in plan.cells[i]],
            "w": [[float(v) for v in vec] for vec in plan.w[i]],
            "targets": [[float(v) for v in vec] for vec in plan.targets[i]],
            "reachable": [list(c) for c in plan.reachable.get(i, [])],
            "satisfying": [list(c) for c in plan.satisfying.get(i, [])],
        }
    return doc


def plan_from_doc(doc):
    try:
        agents = doc["agents"]
        cells = {int(i): [tuple(c) for c in entry["cells"]] for i, entry in agents.items()}
        w = {int(i): [np.asarray(v, dtype=float) for v in entry["w"]] for i, entry in agents.items()}
        targets = {
            int(i): [np.asarray(v, dtype=float) for v in entry["targets"]]
            for i, entry in agents.items()
        }
        reachable = {
            int(i): [tuple(c) for c in entry.get("reachable", [])] for i, entry in agents.items()
        }
        satisfying = {
            int(i): [tuple(c) for c in entry.get("satisfying", [])] for i, entry in agents.items()
        }
        return Plan(
            m=int(doc["m"]),
            dt=float(doc["dt"]),
            steps=int(doc["steps"]),
            cells=cells,
            w=w,
            targets=targets,
            strategy=doc.get("strategy", "unknown"),
            explored={int(i): n for i, n in doc.get("explored", {}).items()},
            reachable=reachable,
            satisfying=satisfying,
            model_hash=doc.get("model_hash"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise PlanConsistencyError(f"malformed plan document: {e}") from None
