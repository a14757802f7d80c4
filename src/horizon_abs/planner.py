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

import collections
import itertools
import math

import numpy as np

from . import grid
from .errors import HorizonError, ModelError, PlanConsistencyError, UnsatisfiableError
from .plandoc import Plan, check_plan_lists, plan_configs


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


# One goal of an agent's table: the cells that satisfy it and its window
# [a, b] of steps, relative to the previous claim or absolute.
StepGoal = collections.namedtuple("StepGoal", "cells a b relative")


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


class _Goals:
    """An agent's goal table as arrays, so that the claims of many arrivals
    are made at once.  Index ``count`` stands for "every goal claimed":
    no cell is in it and no step falls in its window."""

    def __init__(self, dec, table, m):
        self.box = dec.index_set
        self.count = len(table)
        self.m = m
        self.a = np.array([g.a for g in table] + [0])
        self.b = np.array([g.b for g in table] + [-1])
        self.relative = np.array([g.relative for g in table] + [False])
        self.member = np.zeros((len(table) + 1, self.box.mask.size), dtype=bool)
        for g, goal in enumerate(table):
            codes = self.box.codes(np.array(list(goal.cells), dtype=int).reshape(-1, dec.dim))
            self.member[g, codes[codes >= 0]] = True

    def arrive(self, cells, claims, step):
        """Every claim chain open to arrivals at ``step``: arrival r enters
        the valid cell ``cells[r]`` with ``claims[r]`` (goals claimed, step
        of the last claim), then waits or claims its pending goals in turn
        while the cell and the windows allow.  Only chains whose pending
        goal can still be claimed by step m are kept.

        Returns the arrival of each chain, ascending, and the chains; per
        arrival they come in sorted order."""
        codes = self.box.codes(cells)
        arrival, chains = [np.arange(len(codes))], [np.asarray(claims).reshape(-1, 2)]
        while len(arrival[-1]):
            r, (g, s) = arrival[-1], chains[-1].T
            since = step - np.where(self.relative[g], s, 0)
            claim = self.member[g, codes[r]] & (self.a[g] <= since) & (since <= self.b[g])
            arrival.append(r[claim])
            chains.append(np.stack([g[claim] + 1, np.full(len(arrival[-1]), step)], axis=1))
        arrival, chains = np.concatenate(arrival), np.concatenate(chains)
        g, s = chains.T
        base = np.where(self.relative[g], s, 0)
        alive = (g == self.count) | ((step - base <= self.b[g]) & (base + self.a[g] <= self.m))
        # along a chain the goal count grows, so a stable sort by arrival
        # leaves each arrival's chains in sorted order
        order = np.argsort(arrival[alive], kind="stable")
        return arrival[alive][order], chains[alive][order]

    def codes(self, cells, claims):
        """Integer codes of states (cells, claims), in the states' sorted order."""
        g, s = claims.T
        return (self.box.codes(cells) * (self.count + 1) + g) * (self.m + 1) + s

    def layer(self, cells, claims):
        """The distinct states among rows (cells, claims), deduplicated as
        integer codes, as a sorted Layer; and the layer row of each row."""
        _, first, to = np.unique(self.codes(cells, claims), return_index=True, return_inverse=True)
        return Layer(cells[first], claims[first]), to


# One agent's search states at one step, in sorted order: row r is the
# cell ``cells[r]`` (an int lattice row) with ``claims[r]`` (goals
# claimed, step of the last claim).
Layer = collections.namedtuple("Layer", "cells claims")


# An agent's forward layers, one per step 0..m, its number of goals, and
# per step k < m the transitions out of the expanded states: ``edges[k]``
# pairs rows of layer k with the rows of layer k + 1.
Search = collections.namedtuple("Search", "agent_id goals layers edges")


def _ranges(sizes):
    """For a count per owner, the owner of each counted item, in order,
    and the item's rank within its owner."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _arrivals(goals, posts, of_row, claims, step):
    """The successor states of one agent slot over many rows, made the same
    way for both searches.  Row r enters every cell of the Post
    ``posts[of_row[r]]`` (a sorted tuple of lattice tuples) with
    ``claims[r]``, and takes every claim chain of ``goals.arrive``.

    Returns the row of each successor, ascending, and the successors'
    cells and claims; per row they run in Post order, then in claim
    order, the order of a product node's picks."""
    sizes = np.array([len(succ) for succ in posts], dtype=int)
    cells = np.array(list(itertools.chain.from_iterable(posts)), dtype=int)
    cells = cells.reshape(-1, goals.box.mask.ndim)
    rows, rank = _ranges(sizes[of_row])
    cells = cells[(np.cumsum(sizes) - sizes)[of_row][rows] + rank]
    arrival, chains = goals.arrive(cells, claims[rows], step)
    return rows[arrival], cells[arrival], chains


def _start(abstraction, agent_id, goals):
    """An agent's cell at step 0, from its x0, and the claim chains open there."""
    cell = grid.locate(abstraction.decs[agent_id], abstraction.model.agent(agent_id).x0)
    return cell, goals.arrive(np.array([cell]), np.zeros((1, 2), dtype=int), 0)[1]


def _run_starts(cells):
    """Where each run of equal rows of a sorted int array starts."""
    start = np.ones(len(cells), dtype=bool)
    start[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    return start


def forward_layers(abstraction, jobs, m):
    """The forward searches of several agents, advanced in lockstep.

    A job is (agent id, parent cells, goal table); its search starts at
    the cell of the agent's x0.  ``parent_cells[k]`` is the tuple of
    neighbor cells during interval k, aligned with the agent's declared
    neighbor order.  Returns, per job, its Search or the HorizonError
    that stopped it.

    A layer is a product layer with frozen parent cells.  Per job and
    step, initiation is one CellSet.contains_many over the layer's cells
    (the parent cells are checked once), the Posts of its distinct
    initiating cells come from one stacked endpoint run for every job
    (_layer_posts), and the successors of the expanded states are made
    by _arrivals and deduplicated as integer codes.  States in
    non-initiating cells are kept but never expanded.
    """
    goals = [_Goals(abstraction.decs[i], table, m) for i, _, table in jobs]
    out = []
    for (agent_id, _, _), job_goals in zip(jobs, goals):
        cell, claims = _start(abstraction, agent_id, job_goals)
        layer, _ = job_goals.layer(np.repeat([cell], len(claims), axis=0), claims)
        out.append(Search(agent_id, job_goals.count, [layer], []))
    for k in range(m):
        # per live job: its index, the expanded rows, the configuration of
        # each and the configurations
        requests = []
        for j, (agent_id, parent_cells, _) in enumerate(jobs):
            if isinstance(out[j], HorizonError):
                continue
            layer, parents = out[j].layers[k], tuple(parent_cells[k])
            neighbors = abstraction.model.agent(agent_id).neighbors
            frozen = all(
                c in abstraction.decs[p].initiating_set for p, c in zip(neighbors, parents)
            )
            initiating = abstraction.decs[agent_id].initiating_set.contains_many(layer.cells)
            rows = np.flatnonzero(initiating & frozen)
            start = _run_starts(layer.cells[rows])
            configs = [(tuple(c),) + parents for c in layer.cells[rows[start]].tolist()]
            requests.append((j, rows, np.cumsum(start) - 1, configs))
        posts = _layer_posts(abstraction, [(jobs[j][0], configs) for j, _, _, configs in requests])
        for (j, rows, of_row, _), succs in zip(requests, posts):
            if isinstance(succs, HorizonError):
                out[j] = succs
                continue
            claims = out[j].layers[k].claims[rows]
            r, cells, claims = _arrivals(goals[j], succs, of_row, claims, k + 1)
            layer, to = goals[j].layer(cells, claims)
            out[j].layers.append(layer)
            out[j].edges.append((rows[r], to))
    return out


def _layer_posts(abstraction, requests):
    """Posts of one search layer's (agent id, configurations) requests.

    Every request's endpoints are integrated in one stacked run.  If that
    run raises, each request integrates its own misses through post_many,
    in request order, and meets the error it would meet on its own.
    Returns, per request, its Posts or the HorizonError it met.
    """
    try:
        abstraction.seed_endpoints([(i, c) for i, configs in requests for c in configs])
    except HorizonError:
        pass  # each request below integrates its own misses
    out = []
    for i, configs in requests:
        try:
            out.append(abstraction.post_many(i, configs))
        except HorizonError as e:
            out.append(e)
    return out


def backward_prune(search):
    """Per layer of a Search, a mask of its states on at least one
    goal-satisfying path of length m: the complete states of layer m,
    then each state with an edge into the mask of the layer after it."""
    m = len(search.layers) - 1
    good = [None] * m + [search.layers[m].claims[:, 0] == search.goals]
    for k in range(m - 1, -1, -1):
        src, dst = search.edges[k]
        good[k] = np.zeros(len(search.layers[k].cells), dtype=bool)
        good[k][src[good[k + 1][dst]]] = True
    return good


def iter_satisfying_paths(search, good):
    """Cell paths through the ``good`` states of a Search, in lexicographic
    order, each yielded exactly once.

    A path's step k holds a set of good states of layer k, all in its
    cell; their edges reach good states of layer k + 1, and each cell
    among those, in sorted order, is one way on with its states there.
    """
    m = len(search.layers) - 1

    def cell(k, row):
        return tuple(search.layers[k].cells[row].tolist())

    def rec(k, rows, prefix):
        if k == m:
            yield list(prefix)
            return
        src, dst = search.edges[k]
        reached = np.unique(dst[np.isin(src, rows) & good[k + 1][dst]], return_index=True)[0]
        starts = np.flatnonzero(_run_starts(search.layers[k + 1].cells[reached]))
        for group in np.split(reached, starts[1:]):
            prefix.append(cell(k + 1, group[0]))
            yield from rec(k + 1, group, prefix)
            prefix.pop()

    rows = np.flatnonzero(good[0])
    if rows.size:
        yield from rec(0, rows, [cell(0, rows[0])])


def _cells(box, arrays):
    """The sorted distinct cells, as lattice tuples, among the rows of int
    lattice arrays inside the box of the CellSet ``box``."""
    # unique's no-index path would load numpy.ma
    codes = np.unique(box.codes(np.concatenate(arrays)), return_index=True)[0]
    cells = np.stack(np.unravel_index(codes, box.mask.shape), axis=-1) + box.origin
    return list(map(tuple, cells.tolist()))


def _first_failing_goal(search):
    best = int(np.max(np.concatenate([layer.claims[:, 0] for layer in search.layers]), initial=-1))
    if best < search.goals:
        return f"goal {best + 1} was never claimable inside its window"
    return "goals are claimable but no path of the full plan length survives"


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
    (forward_layers).  Every forward pass is kept, keyed by its agent and
    parent paths, so a pass is never made twice; the depth-first order,
    the paths tried and every verdict stay those of one agent at a time.
    An error met ahead of an agent's turn is raised only when its turn
    comes with the same parent paths.

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
    pruned = {}  # agent -> (Search, backward_prune mask) of its latest turn
    chosen = {}
    failure = {}
    # (agent, parent cells) -> the Search or the error of its forward pass
    passes = {}

    def job_key(i):
        agent = model.agent(i)
        return i, tuple(tuple(chosen[j][k] for j in agent.neighbors) for k in range(m + 1))

    def search_for(idx):
        key = job_key(order[idx])
        if key not in passes:
            later = [
                job_key(j) for j in order[idx + 1:]
                if all(p in chosen for p in model.agent(j).neighbors)
            ]
            jobs = [(j, cells, tables[j]) for j, cells in [key] + later if (j, cells) not in passes]
            for (j, cells, _), result in zip(jobs, forward_layers(abstraction, jobs, m)):
                passes[j, cells] = result
        search = passes[key]
        if isinstance(search, HorizonError):
            raise search
        return search

    def solve(idx):
        """None when the agents from order[idx] on all get a path, else
        the conflict set of the failure: the agents before order[idx]
        whose chosen paths it rests on."""
        if idx == len(order):
            return None
        i = order[idx]
        search = search_for(idx)
        good = backward_prune(search)
        pruned[i] = search, good
        # an agent's layers rest on its parents' paths alone
        conflict = set(model.agent(i).neighbors)
        if not good[0].any():
            failure[i] = _first_failing_goal(search)
            return conflict
        paths = iter_satisfying_paths(search, good)
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
    reachable, satisfying = {}, {}
    for i, (search, good) in pruned.items():
        box = abstraction.decs[i].index_set
        reachable[i] = _cells(box, [layer.cells for layer in search.layers])
        satisfying[i] = _cells(box, [layer.cells[g] for layer, g in zip(search.layers, good)])
    return _assemble_plan(
        model, abstraction, chosen, m, "cascade", explored, reachable, satisfying
    )


def product_synthesize(model, abstraction, cap=10**6):
    """Layered breadth-first search over the synchronized product.

    A node is (cells, claim progress), one entry per agent slot; a layer
    holds its nodes as arrays, rows in sorted order, and the row of each
    node's parent: the first node of the layer before, in sorted order,
    that generates it (_product_successors).  The plan follows these
    parents back from the first complete node.  CapExceededError once
    the layers hold more than ``cap`` nodes in all.
    """
    ids = model.agent_ids
    tables = {i: goal_table(abstraction, i) for i in ids}
    m_max = plan_length(abstraction, tables)
    goals = [_Goals(abstraction.decs[i], tables[i], m_max) for i in ids]
    start_cells, claims = zip(*(_start(abstraction, i, slot) for i, slot in zip(ids, goals)))
    combos = np.array(list(itertools.product(*(c.tolist() for c in claims))), dtype=int)
    # per layer: cells (rows, slots, dim), claims (rows, slots, 2), parent rows
    layers = [(np.repeat([start_cells], len(combos), axis=0), combos, None)]
    generated = len(combos)
    _check_cap(generated, cap)
    for k in range(m_max + 1):
        cells, claims, _ = layers[k]
        complete = np.flatnonzero(np.all(claims[:, :, 0] == [g.count for g in goals], axis=1))
        if complete.size:
            return _reconstruct_product(model, abstraction, layers, complete[0], generated)
        if k == m_max:
            break
        rows = np.flatnonzero(np.all([
            abstraction.decs[i].initiating_set.contains_many(cells[:, a])
            for a, i in enumerate(ids)
        ], axis=0))
        # one stacked endpoint run for every agent; posts[a][r] belongs to rows[r]
        columns = {i: list(map(tuple, cells[rows, a].tolist())) for a, i in enumerate(ids)}
        configs = plan_configs(model, columns, len(rows))
        posts = _layer_posts(abstraction, [(i, configs[i]) for i in ids])
        for succs in posts:
            if isinstance(succs, HorizonError):
                raise succs
        slots = []
        for a, succs in enumerate(posts):
            pairs = _arrivals(goals[a], succs, np.arange(len(rows)), claims[rows, a], k + 1)
            slots.append(pairs + (goals[a].codes(*pairs[1:]),))
        nxt_cells, nxt_claims, parent = _product_successors(len(rows), slots, generated, cap)
        layers.append((nxt_cells, nxt_claims, rows[parent]))
        generated += len(parent)
    raise UnsatisfiableError(
        f"no product path of length at most {m_max} satisfies every agent"
    )


def _check_cap(generated, cap):
    if generated > cap:
        raise CapExceededError(f"product search exceeded the state cap {cap}")


_PICK_BLOCK = 1 << 13  # picks coded at once by _product_successors


def _product_successors(count, slots, generated, cap):
    """One product layer from ``count`` expanded nodes, in sorted order:
    the cells and claims of its nodes and the node each first comes from.

    A node's successors are its picks of one (successor cell, claim) pair
    per agent slot, in itertools.product order.  ``slots[a]`` holds slot
    a's pairs as _arrivals returns them (the node of each pair, then the
    pairs' cells and claims) and the pairs' state codes.  Each slot's
    distinct pairs get ids, and every pick becomes an int code of its ids
    (_PickCoder).  Blocks of whole nodes, about _PICK_BLOCK picks each,
    keep memory small; each is deduplicated by one np.unique against the
    codes of the blocks before it, so a successor keeps the node of its
    first pick.  CapExceededError is raised as soon as ``generated`` plus
    the successors found pass ``cap``.
    """
    counts, flat, pairs = [], [], []
    for rows, cells, claims, codes in slots:
        counts.append(np.bincount(rows, minlength=count))
        _, first, ids = np.unique(codes, return_index=True, return_inverse=True)
        flat.append(ids)
        pairs.append(np.concatenate([cells, claims], axis=1)[first])
    counts = np.array(counts, dtype=np.int64).reshape(len(slots), count)
    picks = [math.prod(row) for row in counts.T.tolist()]
    # a node's picks are distinct successors, so the largest one alone may trip the cap
    _check_cap(generated + max(picks, default=0), cap)
    starts = np.cumsum(counts, axis=1) - counts
    coder = _PickCoder([len(p) for p in pairs], sum(picks))
    seen = np.empty(0, dtype=np.int64)  # codes of the successors found so far
    found, parent = [], []  # per block: slot pair ids of new successors, their nodes
    for r0, r1 in _blocks(picks, _PICK_BLOCK) or [(0, 0)]:
        node_of, q = _ranges(np.array(picks[r0:r1], dtype=np.int64))
        node_of += r0
        # the rank of each pick among its node's picks, read as a mixed-radix
        # number whose last slot varies fastest, as in itertools.product
        cols = [None] * len(slots)
        for a in reversed(range(len(slots))):
            q, local = np.divmod(q, counts[a][node_of])
            cols[a] = flat[a][starts[a][node_of] + local]
        codes, first = np.unique(coder(cols), return_index=True)
        new = ~np.isin(codes, seen)
        seen = np.concatenate((seen, codes[new]))
        found.append([col[first[new]] for col in cols])
        parent.append(node_of[first[new]])
        _check_cap(generated + len(seen), cap)
    # per new successor and slot: (cell, claims), the rows of its pair
    nodes = np.stack([p[np.concatenate(f)] for p, f in zip(pairs, zip(*found))], axis=1)
    cells, claims = nodes[:, :, :-2], nodes[:, :, -2:]
    # sorted as node tuples: every slot's cell, then every slot's claims
    keys = np.concatenate([a.reshape(len(nodes), -1) for a in (cells, claims)], axis=1)
    order = np.lexsort(keys.T[::-1])
    return cells[order], claims[order], np.concatenate(parent)[order]


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


def _reconstruct_product(model, abstraction, layers, row, generated):
    ids = model.agent_ids
    chain = [row]
    for _, _, parent in layers[:0:-1]:
        chain.append(parent[chain[-1]])
    chosen = {
        i: [tuple(cells[r, a].tolist()) for (cells, _, _), r in zip(layers, chain[::-1])]
        for a, i in enumerate(ids)
    }
    reachable = {
        i: _cells(abstraction.decs[i].index_set, [cells[:, a] for cells, _, _ in layers])
        for a, i in enumerate(ids)
    }
    explored = {i: generated for i in ids}
    return _assemble_plan(
        model, abstraction, chosen, len(chain) - 1, "product", explored, reachable,
        dict(reachable),
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


def _agrees(stored, derived, scale):
    """A stored vector within 1e-9 * max(1, scale) of the derived one in every
    entry; a NaN or a wrong shape disagrees."""
    stored = np.asarray(stored, dtype=float)
    return stored.shape == derived.shape and bool(
        np.max(np.abs(stored - derived)) <= 1e-9 * max(1.0, scale)
    )


def extract_controls(model, abstraction, plan):
    """Re-derive and cross-check the per-step controller parameters of a
    plan; per agent, the Action of each of its m steps."""
    # every agent's lists first: a configuration reads its neighbors' cells
    check_plan_lists(model, plan)
    configs = plan_configs(model, plan.cells, plan.m)
    initiating = {
        i: list(itertools.compress(
            configs[i], abstraction.initiating([(i, c) for c in configs[i]])
        ))
        for i in model.agent_ids
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
            for name, stored, derived, scale in (
                ("w", plan.w[i][k], action.w, agent.v_max),
                ("target", plan.targets[i][k], action.point, np.max(np.abs(action.point))),
            ):
                if not _agrees(stored, derived, scale):
                    raise PlanConsistencyError(
                        f"agent {i}, step {k}: stored {name} disagrees with the re-derived value"
                    )
            steps.append(action)
        schedule[i] = steps
    return schedule
