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
from .errors import HorizonError, ModelError, PlanConsistencyError, UnsatisfiableError


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


def forward_layers(abstraction, jobs, m):
    """Per-step sets of (cell, claimed, last-claim-step) reachable states of
    several agents, advanced in lockstep.

    A job is (agent id, parent cells, goal table); its search starts at
    the cell of the agent's x0.  ``parent_cells[k]`` is the tuple of
    neighbor cells during interval k, aligned with the agent's declared
    neighbor order.  Non-initiating cells are retained but never expanded.

    The Posts every job needs at step k come from one stacked endpoint
    run (_layer_posts).  Returns, per job, its layers or the HorizonError
    that stopped it.
    """
    out = []
    for agent_id, _, table in jobs:
        start = grid.locate(abstraction.decs[agent_id], abstraction.model.agent(agent_id).x0)
        layers = [set() for _ in range(m + 1)]
        layers[0] = {(start, g, s) for (g, s) in _claim_options(start, (0, 0), 0, table, m)}
        out.append(layers)
    for k in range(m):
        # per live job: its index, its configurations and its states by own cell
        requests = []
        for j, (agent_id, parent_cells, _) in enumerate(jobs):
            if isinstance(out[j], HorizonError):
                continue
            parents = tuple(parent_cells[k])
            grouped = {}
            for (l, g, s) in out[j][k]:
                if abstraction.is_initiating(agent_id, (l,) + parents):
                    grouped.setdefault(l, set()).add((g, s))
            if grouped:
                requests.append((j, [(l,) + parents for l in sorted(grouped)], grouped))
        posts = _layer_posts(abstraction, [(jobs[j][0], configs) for j, configs, _ in requests])
        for (j, configs, grouped), succs in zip(requests, posts):
            if isinstance(succs, HorizonError):
                out[j] = succs
                continue
            table = jobs[j][2]
            # with k fixed, the claim options depend only on (cell, progress)
            options = {}
            nxt = out[j][k + 1]
            for l, succ in zip(sorted(grouped), succs):
                for l2 in succ:
                    for prog in grouped[l]:
                        key = (l2, prog)
                        if key not in options:
                            options[key] = _claim_options(l2, prog, k + 1, table, m)
                        nxt.update((l2, g, s) for (g, s) in options[key])
    return out


def _layer_posts(abstraction, requests):
    """Posts of one search layer's (agent id, configurations) requests.

    Every request's endpoints are integrated in one stacked run.  If that
    run raises, each request integrates its own misses through post_many,
    in request order, and meets the error it would meet on its own.
    Returns, per request, its Posts or the HorizonError it met.
    """
    try:
        abstraction.seed_endpoints((i, c) for i, configs in requests for c in configs)
    except HorizonError:
        pass  # each request below integrates its own misses
    out = []
    for i, configs in requests:
        try:
            out.append(abstraction.post_many(i, configs))
        except HorizonError as e:
            out.append(e)
    return out


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
    """Topological per-agent synthesis with bounded, conflict-directed
    parent backtracking.

    An agent's forward layers depend only on its parents' chosen paths.
    So when an agent's turn needs its layers, every later agent whose
    parents all have a chosen path is advanced with it in lockstep
    (forward_layers).  Each agent keeps the result of its last forward
    pass, keyed by its parent paths; the depth-first order, the paths
    tried and every verdict stay those of one agent at a time.  An error
    met ahead of an agent's turn is raised only when its turn comes with
    the same parent paths.

    A failure returns to the latest agent in its conflict set (the
    failing agent's parents, plus the conflict sets of the failures below
    the paths it tried) and skips the remaining paths of every agent in
    between: their other paths would fail the same way.  So the plan and
    the verdict are those of chronological backtracking, with fewer paths
    tried.
    """
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
    # agent -> (parent cells, layers or the error) of its last forward pass
    passes = {}

    def parent_cells_for(i):
        agent = model.agent(i)
        return tuple(tuple(chosen[j][k] for j in agent.neighbors) for k in range(m + 1))

    def layers_for(idx):
        i = order[idx]
        if passes.get(i, (None,))[0] != parent_cells_for(i):
            batch = [i] + [
                j for j in order[idx + 1:]
                if all(p in chosen for p in model.agent(j).neighbors)
                and passes.get(j, (None,))[0] != parent_cells_for(j)
            ]
            jobs = [(j, parent_cells_for(j), tables[j]) for j in batch]
            for job, result in zip(jobs, forward_layers(abstraction, jobs, m)):
                passes[job[0]] = (job[1], result)
        parent_cells, layers = passes[i]
        if isinstance(layers, HorizonError):
            raise layers
        return parent_cells, layers

    def solve(idx):
        """None when the agents from order[idx] on all get a path, else
        the conflict set of the failure: the agents before order[idx]
        whose chosen paths it rests on."""
        if idx == len(order):
            return None
        i = order[idx]
        parent_cells, layers = layers_for(idx)
        good = backward_prune(abstraction, i, parent_cells, tables[i], m, layers)
        reachable[i] = sorted({l for layer in layers for (l, _, _) in layer})
        satisfying[i] = sorted({l for layer in good for (l, _, _) in layer})
        # an agent's layers rest on its parents' paths alone
        conflict = set(model.agent(i).neighbors)
        if not good[0]:
            failure[i] = _first_failing_goal(layers, tables[i])
            return conflict
        paths = iter_satisfying_paths(abstraction, i, parent_cells, tables[i], m, good)
        for path in itertools.islice(paths, budget):
            explored[i] += 1
            chosen[i] = path
            below = solve(idx + 1)
            if below is None:
                return None
            if i not in below:
                # every other path of i fails the same way: jump back past i
                conflict = below
                break
            conflict |= below - {i}
        chosen.pop(i, None)
        failure.setdefault(i, "every tried path starves a downstream agent")
        return conflict

    if solve(0) is not None:
        detail = "; ".join(f"agent {i}: {msg}" for i, msg in sorted(failure.items()))
        raise UnsatisfiableError(f"cascade synthesis failed ({detail})")
    return _assemble_plan(
        model, abstraction, chosen, m, "cascade", explored, reachable, satisfying
    )


def product_synthesize(model, abstraction, cap=10**6):
    """Layered breadth-first search over the synchronized product.

    A node is (cells, claim progress), one entry per agent.  Layer k + 1
    maps each node to the first node of layer k, in sorted order, that
    generates it (_product_successors); the plan follows these parents
    back from the first complete node.  CapExceededError once the layers
    hold more than ``cap`` nodes in all.
    """
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
    parents = [dict.fromkeys((start_cells, combo) for combo in itertools.product(*init_progress))]
    generated = len(parents[0])
    _check_cap(generated, cap)

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
        lattice = np.array([node[0] for node in current], dtype=int).reshape(
            len(current), len(ids), model.dim
        )
        initiating = np.ones(len(current), dtype=bool)
        for a, i in enumerate(ids):
            initiating &= abstraction.decs[i].initiating_set.contains_many(lattice[:, a])
        expandable = list(itertools.compress(current, initiating))
        # one stacked endpoint run for every agent; posts[a][r] belongs to expandable[r]
        columns = {i: [cells[a] for cells, _ in expandable] for a, i in enumerate(ids)}
        configs = plan_configs(model, columns, len(expandable))
        posts = _layer_posts(abstraction, [(i, configs[i]) for i in ids])
        for succs in posts:
            if isinstance(succs, HorizonError):
                raise succs
        # with k fixed, the claim options depend only on (agent slot, cell, progress)
        options = {}

        def claim_options(a, cell, prog):
            key = (a, cell, prog)
            if key not in options:
                options[key] = _claim_options(cell, prog, k + 1, tables[ids[a]], m_max)
            return options[key]

        nxt = _product_successors(expandable, posts, claim_options, generated, cap)
        generated += len(nxt)
        parents.append(nxt)
    raise UnsatisfiableError(
        f"no product path of length at most {m_max} satisfies every agent"
    )


def _check_cap(generated, cap):
    if generated > cap:
        raise CapExceededError(f"product search exceeded the state cap {cap}")


_PICK_BLOCK = 1 << 13  # picks coded at once by _product_successors


def _product_successors(expandable, posts, claim_options, generated, cap):
    """One product layer: each successor node mapped to the first node of
    ``expandable`` that generates it, in order of generation.

    A node's successors are its picks of one (successor cell, claim) pair
    per agent slot, in itertools.product order, where ``posts[a][r]`` holds
    slot a's successor cells of node r and ``claim_options(a, cell,
    progress)`` the claims on arrival.  Each slot's pairs get integer ids
    within the layer, and every pick becomes an int code of its ids
    (_PickCoder).  Blocks of whole nodes, about _PICK_BLOCK picks each,
    keep memory small; each is deduplicated by one np.unique against the
    codes of the blocks before it, and only successors met for the first
    time are decoded into nodes.  CapExceededError is raised as soon as
    ``generated`` plus the successors found pass ``cap``.
    """
    slots = len(posts)
    index = [{} for _ in range(slots)]  # per slot: (cell, claim) -> id
    ids_of = {}  # (slot, successor cells, progress) -> ids of their pairs

    def pair_ids(a, succ, prog):
        key = (a, succ, prog)
        if key not in ids_of:
            pairs = [(cell, p) for cell in succ for p in claim_options(a, cell, prog)]
            ids_of[key] = [index[a].setdefault(pair, len(index[a])) for pair in pairs]
        return ids_of[key]

    # per slot, every node's pair ids one after another; per node, its
    # pick count and the number of pairs of each slot
    flat = [[] for _ in range(slots)]
    counts = []
    picks = []
    for node, node_posts in zip(expandable, zip(*posts)):
        row = []
        for a, (succ, prog) in enumerate(zip(node_posts, node[1])):
            ids = pair_ids(a, succ, prog)
            flat[a] += ids
            row.append(len(ids))
        counts.append(row)
        picks.append(math.prod(row))
    # a node's picks are distinct successors, so the largest one alone may trip the cap
    _check_cap(generated + max(picks, default=0), cap)
    counts = np.array(counts, dtype=np.int64).reshape(len(picks), slots).T
    starts = np.cumsum(counts, axis=1) - counts
    flat = [np.array(f, dtype=np.int64) for f in flat]
    cells = [[cell for cell, _ in ids] for ids in index]
    claims = [[claim for _, claim in ids] for ids in index]
    coder = _PickCoder([len(ids) for ids in index], sum(picks))
    seen = np.empty(0, dtype=np.int64)  # codes of the successors found so far
    nxt = {}
    for r0, r1 in _blocks(picks, _PICK_BLOCK):
        sizes = np.array(picks[r0:r1], dtype=np.int64)
        node_of = np.repeat(np.arange(r0, r1), sizes)
        # the rank of each pick among its node's picks, read as a mixed-radix
        # number whose last slot varies fastest, as in itertools.product
        q = np.arange(len(node_of)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        cols = [None] * slots
        for a in reversed(range(slots)):
            q, local = np.divmod(q, counts[a][node_of])
            cols[a] = flat[a][starts[a][node_of] + local]
        codes, first = np.unique(coder(cols), return_index=True)
        new = ~np.isin(codes, seen)
        seen = np.concatenate((seen, codes[new]))
        first = np.sort(first[new])
        picked = [col[first].tolist() for col in cols]
        succs = zip(
            zip(*(map(c.__getitem__, col) for c, col in zip(cells, picked))),
            zip(*(map(c.__getitem__, col) for c, col in zip(claims, picked))),
        )
        nxt.update(zip(succs, map(expandable.__getitem__, node_of[first].tolist())))
        _check_cap(generated + len(nxt), cap)
    return nxt


def _blocks(sizes, limit):
    """(start, stop) index ranges over ``sizes``, each summing to at least
    ``limit`` but the last; a range ends at the first item that reaches it."""
    out = []
    start = total = 0
    for r, size in enumerate(sizes):
        total += size
        if total >= limit:
            out.append((start, r + 1))
            start, total = r + 1, 0
    if start < len(sizes):
        out.append((start, len(sizes)))
    return out


class _PickCoder:
    """int64 codes of rows of slot ids, equal exactly when the rows are,
    across every call of one coder.

    Slot a's ids are below ``radices[a]``, and all calls together code at
    most ``rows`` rows.  A code is the mixed-radix number of a row's ids.
    numpy int64 arithmetic wraps silently, so before a multiply could pass
    2**62 the partial codes are replaced by ranks, numbered in order of
    first appearance over all calls; there are fewer than ``rows``.
    """

    def __init__(self, radices, rows):
        self.radices = radices
        self.ranked = []  # per slot: None, or the ranks of the partial codes before it
        bound = 1  # every partial code is below bound
        for radix in radices:
            self.ranked.append({} if bound * radix > 2**62 else None)
            bound = (rows if self.ranked[-1] is not None else bound) * radix

    def __call__(self, cols):
        code = np.zeros(len(cols[0]), dtype=np.int64)
        for ids, radix, ranks in zip(cols, self.radices, self.ranked):
            if ranks is not None:
                values, code = np.unique(code, return_inverse=True)
                order = [ranks.setdefault(v, len(ranks)) for v in values.tolist()]
                code = np.array(order, dtype=np.int64)[code]
            code = code * radix + ids
        return code


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
    for i, configs in plan_configs(model, cells, m).items():
        actions = [
            abstraction.successor_action(i, config, cells[i][k + 1])
            for k, config in enumerate(configs)
        ]
        w[i] = [action.w for action in actions]
        targets[i] = [action.point for action in actions]
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


def plan_configs(model, cells, m):
    """Per agent, its configuration at each of the first m steps of the
    per-agent cell lists ``cells``: its own cell, then its neighbors' in
    declared order."""
    return {
        i: list(zip(cells[i][:m], *(cells[j][:m] for j in model.agent(i).neighbors)))
        for i in model.agent_ids
    }


def extract_controls(model, abstraction, plan):
    """Re-derive and cross-check the per-step controller parameters of a
    plan; per agent, the Action of each of its m steps."""
    # every agent's lists first: a configuration reads its neighbors' cells
    check_plan_lists(model, plan)
    configs = plan_configs(model, plan.cells, plan.m)
    initiating = {
        i: [c for c in configs[i] if abstraction.is_initiating(i, c)] for i in model.agent_ids
    }
    # one stacked reference run for every agent; its endpoints serve the
    # Posts below, and the closed loop reuses it for the same pairs
    abstraction.reference_for(
        dict.fromkeys((i, c) for i in model.agent_ids for c in initiating[i])
    )
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
        # one batched intersection; a non-initiating configuration fails at its step below
        abstraction.post_many(i, initiating[i])
        steps = []
        for k, config in enumerate(configs[i]):
            target = tuple(cells[k + 1])
            succ = abstraction.post(i, config)
            if target not in succ:
                raise PlanConsistencyError(
                    f"agent {i}, step {k}: {target} is not a successor of {config}"
                )
            action = abstraction.successor_action(i, config, target)
            stored_w = np.asarray(plan.w[i][k], dtype=float)
            # a NaN or a wrong shape disagrees too
            if stored_w.shape != action.w.shape or not (
                np.max(np.abs(stored_w - action.w)) <= 1e-9 * max(1.0, agent.v_max)
            ):
                raise PlanConsistencyError(
                    f"agent {i}, step {k}: stored w disagrees with the re-derived value"
                )
            steps.append(action)
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


def _cell(c):
    """A lattice cell of a plan document, which lists it as integers."""
    if type(c) is not list or not all(type(v) is int for v in c):
        raise ValueError(f"cell {c!r} is not a list of integers")
    return tuple(c)


def plan_from_doc(doc):
    try:
        agents = doc["agents"]
        cells = {int(i): [_cell(c) for c in entry["cells"]] for i, entry in agents.items()}
        w = {int(i): [np.asarray(v, dtype=float) for v in entry["w"]] for i, entry in agents.items()}
        targets = {
            int(i): [np.asarray(v, dtype=float) for v in entry["targets"]]
            for i, entry in agents.items()
        }
        reachable = {
            int(i): [_cell(c) for c in entry.get("reachable", [])] for i, entry in agents.items()
        }
        satisfying = {
            int(i): [_cell(c) for c in entry.get("satisfying", [])] for i, entry in agents.items()
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
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise PlanConsistencyError(f"malformed plan document: {e}") from None
