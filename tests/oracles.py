"""Test-only oracles: the paper's transition identity and small helpers.

The package runs the transition feedback law (``controller.feedback``)
inside the closed loop.  What the paper proves about that law is checked
here.  Under the feedback, an agent's auxiliary system ends at the
reference endpoint plus lambda*w*dt, for any start state in its cell and
any motion of its neighbors inside their growing tubes
(``closed_form_endpoint``).  ``integrate_auxiliary`` integrates that
system for a batch of transitions at once, with ``eval_g`` below and the
production ``controller.feedback`` and ``integrate_reference``.

Also here: the open-loop simulator, the tuple-set cascade search and the
one-agent-at-a-time cascade built on it, the pick-by-pick product layer,
the enumeration of every simple coupling cycle and its mu product,
the random cell and disturbance samplers, and the set, parameter and
expression helpers that only tests use.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from horizon_abs import controller, expr, grid, integrate, planner, reach, sim
from horizon_abs import model as model_mod
from horizon_abs.errors import HorizonError, ModelError, UnsatisfiableError

DISTURBANCE_KNOTS = 8


def replace(record, **changes):
    """A copy of a record with some fields changed, as dataclasses.replace
    makes it: every field of the package's records is an argument of its
    __init__, under the same name."""
    return type(record)(**{**vars(record), **changes})


def is_initiating(ab, agent_id, config):
    """Whether one (agent, configuration) pair is transition-initiating."""
    return bool(ab.initiating([(agent_id, config)])[0])


def padded_refs(blocks):
    """Per-row neighbor blocks as the 2-D array model.NetworkField takes:
    row r starts with ``blocks[r]``, zero past it."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    out = np.zeros((len(blocks), max(b.size for b in blocks)))
    for row, b in zip(out, blocks):
        row[: b.size] = b
    return out


def config_refs(ab, agent_id, config):
    """The reference points of one configuration: the agent's own, and its
    neighbors' as one block in declared order."""
    own, nbr = ab._refs(ab._by_agent([(agent_id, config)]), 1)
    return own[0], nbr[0]


class PiecewiseLinearPath:
    """Linear interpolation between knots.

    ``values`` holds the knots along its second-to-last axis; leading axes
    are a batch of paths sharing the knot times ``ts``.
    """

    def __init__(self, ts, values):
        self.ts = np.asarray(ts, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def eval(self, t):
        t = float(np.clip(t, self.ts[0], self.ts[-1]))
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        k = min(max(k, 0), len(self.ts) - 2)
        span = self.ts[k + 1] - self.ts[k]
        theta = 0.0 if span == 0 else (t - self.ts[k]) / span
        return (1 - theta) * self.values[..., k, :] + theta * self.values[..., k + 1, :]

    __call__ = eval

    def rows(self, index):
        """The paths of a batch at ``index``."""
        return PiecewiseLinearPath(self.ts, self.values[index])


def sample_in_cell(dec, lattice, rng, max_tries=1000):
    """Uniform draw from the clipped cell; deterministic fallback for slivers."""
    lo, hi = dec.box(lattice)
    for _ in range(max_tries):
        p = lo + (hi - lo) * rng.random(dec.dim)
        if dec.region.contains(p):
            return p
    p = grid.witness_in_cell_ball(dec, lattice, dec.region)
    if p is None:
        raise ModelError(f"cell {lattice} has no representative point in the region")
    return p


def sample_disturbance(dec, lattice, c_rate, dt, rng, knots=DISTURBANCE_KNOTS):
    """A continuous realization staying inside the growing neighbor tube.

    Knot k is a cell point plus a ball sample of radius c_rate * t_k; the
    linear interpolants remain inside the tube because the cross-section
    is convex and grows linearly in t.
    """
    ts = np.linspace(0.0, dt, knots)
    values = np.empty((knots, dec.dim))
    for k, t in enumerate(ts):
        base = sample_in_cell(dec, lattice, rng)
        radius = c_rate * t
        if radius > 0:
            direction = rng.standard_normal(dec.dim)
            norm = float(np.sqrt(np.sum(direction**2)))
            direction = direction / max(norm, 1e-300)
            offset = direction * radius * rng.random() ** (1.0 / dec.dim)
        else:
            offset = np.zeros(dec.dim)
        values[k] = base + offset
    return PiecewiseLinearPath(ts, values)


def saturate(v, bound):
    """model.saturate with the factor and the divide on every batch, the
    bit-for-bit reference for its shortcuts."""
    v = np.asarray(v, dtype=float)
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    # rows at or under the bound keep the factor 1 and never divide, so a zero norm is never read
    factor = np.empty_like(norms)
    factor.fill(1.0)
    return v * np.divide(bound, norms, out=factor, where=norms > bound)


def hill_eval(dynamics, x_i, neighbors):
    """model.HillDynamics.eval with its three masks on every batch, the
    bit-for-bit reference for its radial-only path."""
    x = np.asarray(x_i, dtype=float)
    rho = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    coef = dynamics.C * math.pi / dynamics.R
    # rho = 0 divides by 1 instead; the series branch below replaces that row anyway
    radial = coef * np.sin(math.pi * rho / dynamics.R) / np.where(rho > 0, rho, 1.0)
    series = dynamics.C * (math.pi / dynamics.R) ** 2
    scale = np.where(rho < model_mod._HILL_SERIES_CUTOFF, series, radial)
    scale = np.where(rho >= dynamics.R, 0.0, scale)
    return scale * x


def eval_g(agent, x_i, x_j):
    """The globally bounded field of one agent: the raw dynamics saturated at
    M.  The package evaluates the raw field of many rows through
    model.NetworkField and saturates it at the field's M column."""
    return model_mod.saturate(model_mod.eval_f(agent, x_i, x_j), agent.M)


@dataclass(frozen=True, eq=False)
class TransitionControl:
    """The transition feedback of one agent.

    ``reference`` is a controller.ReferenceTrajectory.  A batch of
    transitions of the same agent and time step runs along the leading axis
    of ``x0``, ``x_G``, ``w`` and the reference's arrays, one row each.
    """

    agent: object
    reference: controller.ReferenceTrajectory
    x_G: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    lam: float
    dt: float

    def law(self, t, g_x):
        """(kbar, k) at time t, given the bounded own field g_x = g(x_i, d_j)."""
        k1 = eval_g(self.agent, self.reference.eval(t), self.reference.nbr_refs) - g_x
        k2 = self.lam * self.w
        k3 = (self.x_G - self.x0) / self.dt
        return controller.feedback(k1, k2, k3, self.agent.v_max)

    def k(self, t, x_i, d_j):
        return self.law(t, eval_g(self.agent, x_i, d_j))[1]

    def rows(self, index):
        """The transitions of a batch at ``index``."""
        return replace(
            self, reference=reference_rows(self.reference, index),
            x_G=self.x_G[index], x0=self.x0[index], w=self.w[index],
        )


def reference_rows(ref, index):
    """The references of a batch at ``index``, with their bits."""
    traj = integrate.DenseTrajectory(ref.traj.ts, ref.traj.ys[:, index], ref.traj.ds[:, index])
    return controller.ReferenceTrajectory(
        own_ref=ref.own_ref[index], nbr_refs=ref.nbr_refs[index], traj=traj,
        audit_err=np.asarray(ref.audit_err)[index],
    )


def closed_form_endpoint(ctrl, t):
    """The exact auxiliary solution below saturation."""
    if not -1e-12 <= t <= ctrl.dt + 1e-12:
        raise ModelError(f"t={t} outside [0, {ctrl.dt}]")
    drift = (ctrl.dt - t) / ctrl.dt * (ctrl.x0 - ctrl.x_G)
    return drift + ctrl.lam * ctrl.w * t + ctrl.reference.eval(t)


@dataclass(frozen=True, eq=False)
class AuxResult:
    """Per row: the endpoint, the largest sampled |kbar| and the audit estimate."""

    endpoint: np.ndarray
    kbar_max: np.ndarray
    audit_err: np.ndarray


def _auxiliary_run(ctrl, disturbance, substeps):
    """The endpoint run of integrate_auxiliary, the largest |kbar| it sampled
    per row, and its right-hand side, which samples no more after it."""
    kbar_max = np.zeros(len(ctrl.x0))
    tracking = [True]

    def rhs(t, z):
        g_z = eval_g(ctrl.agent, z, disturbance(t))
        u_bar, u = ctrl.law(t, g_z)
        if tracking[0]:
            np.fmax(kbar_max, np.sqrt(np.sum(u_bar * u_bar, axis=-1)), out=kbar_max)
        return g_z + u

    endpoint = integrate.rk4_endpoint(rhs, ctrl.x0, ctrl.dt, substeps)
    tracking[0] = False
    return endpoint, kbar_max, rhs


def integrate_auxiliary(
    ctrl,
    disturbance,
    substeps=integrate.DEFAULT_SUBSTEPS,
    integ_tol=integrate.DEFAULT_INTEG_TOL,
):
    """Closed-loop auxiliary endpoints of a batch of transitions.

    Row r starts at ``ctrl.x0[r]``, and its neighbor block follows row r of
    the batched ``disturbance`` path.  Every operation is row-wise, so a
    row gets the bits of its one-row batch.  The largest sampled feedback
    magnitude of each row is reported, so callers can assert that
    saturation stayed inactive.

    A row whose step-halving audit estimate exceeds ``integ_tol`` is
    integrated again at 4x substeps: a saturation kink near a node can
    leave the audit at the tolerance edge.  A row failing that too, or
    ending non-finite, raises IntegrationError.
    """
    endpoint, kbar_max, rhs = _auxiliary_run(ctrl, disturbance, substeps)
    # an infinite tolerance leaves only the finiteness check to the audit
    err = integrate.check_audit(
        endpoint, integrate.rk4_endpoint(rhs, ctrl.x0, ctrl.dt, 2 * substeps), math.inf,
        what="auxiliary integration",
    )
    retry = np.flatnonzero(err > integ_tol)
    if retry.size:
        sub = ctrl.rows(retry)
        endpoint[retry], kbar_max[retry], rhs = _auxiliary_run(
            sub, disturbance.rows(retry), 4 * substeps
        )
        err[retry] = integrate.check_audit(
            endpoint[retry], integrate.rk4_endpoint(rhs, sub.x0, ctrl.dt, 8 * substeps),
            integ_tol, what="auxiliary integration",
        )
    return AuxResult(endpoint=endpoint, kbar_max=kbar_max, audit_err=err)


@dataclass(frozen=True, eq=False)
class TransitionDraw:
    """One random transition: agent ``agent`` of ``pool[instance]`` in
    configuration ``config``, the knots of its neighbor block's disturbance
    path, a parameter w and two start states in its own cell."""

    instance: int
    agent: object
    config: tuple
    knots: np.ndarray
    w: np.ndarray
    x0: np.ndarray


def draw_transitions(pool, count, rng):
    """``count`` random transitions over a pool of (doc, model, params,
    abstraction) instances, cycling through the pool.  Nothing is
    integrated, so the random numbers are drawn in the order of a loop
    that integrated each draw right after drawing it."""
    draws = []
    for c in range(count):
        _, model, params, ab = pool[c % len(pool)]
        agent = model.agents[int(rng.integers(len(model.agents)))]
        dec = ab.decs[agent.id]
        own = sorted(dec.initiating_set)
        config = (own[int(rng.integers(len(own)))],)
        knots = [np.empty((DISTURBANCE_KNOTS, 0))]
        for j in agent.neighbors:
            dj = ab.decs[j]
            parents = sorted(dj.initiating_set)
            cell = parents[int(rng.integers(len(parents)))]
            config += (cell,)
            path = sample_disturbance(dj, cell, ab.families[j].c_rate, params.dt, rng)
            knots.append(path.values)
        u = rng.standard_normal(dec.dim)
        u /= float(np.sqrt(np.sum(u * u)))
        w = u * agent.v_max * rng.random() ** (1.0 / dec.dim)
        x0 = np.stack([sample_in_cell(dec, config[0], rng) for _ in range(2)])
        draws.append(TransitionDraw(
            instance=c % len(pool), agent=agent, config=config,
            knots=np.concatenate(knots, axis=-1), w=w, x0=x0,
        ))
    return draws


def group_draws(draws):
    """Draws sharing an agent of one instance, in order of first appearance."""
    groups = {}
    for draw in draws:
        groups.setdefault((draw.instance, draw.agent.id), []).append(draw)
    return list(groups.values())


def transition_batch(pool, draws, substeps):
    """The transitions of draws of one agent of one instance as one batch.

    The draws' references are integrated and audited as one batch.  Each
    draw gives two rows, one per start state, which share its reference,
    parameter and disturbance.  Returns the control and the disturbance
    path of the batch.
    """
    _, _, params, ab = pool[draws[0].instance]
    agent = draws[0].agent
    own, nbr = (np.stack(v) for v in zip(*(config_refs(ab, agent.id, d.config) for d in draws)))
    per_draw = np.repeat(np.arange(len(draws)), 2)
    ref = reference_rows(
        controller.integrate_reference(agent, own, nbr, params.dt, substeps=substeps), per_draw
    )
    ctrl = TransitionControl(
        agent=agent, reference=ref, x_G=ref.own_ref, x0=np.concatenate([d.x0 for d in draws]),
        w=np.stack([d.w for d in draws])[per_draw], lam=params.lam[agent.id], dt=params.dt,
    )
    ts = np.linspace(0.0, params.dt, DISTURBANCE_KNOTS)
    return ctrl, PiecewiseLinearPath(ts, np.stack([d.knots for d in draws])[per_draw])


def simulate_open_loop(model, v_fns, duration, substeps=integrate.DEFAULT_SUBSTEPS):
    """Integrate the coupled network under user-supplied admissible inputs."""
    ids = model.agent_ids
    field = model_mod.NetworkField(model.agents, sim._neighbor_rows(model.agents))

    def inputs_at(t):
        return np.stack([np.asarray(v_fns[i](t), dtype=float) for i in ids])

    def rhs(t, Y):
        V = inputs_at(t)
        for agent, v in zip(model.agents, V):
            if np.sqrt(np.sum(v * v)) > agent.v_max * (1 + 1e-9):
                raise ModelError(
                    f"agent {agent.id}: input magnitude exceeds v_max at t={t}"
                )
        return field(Y) + V

    Y0 = np.stack([agent.x0 for agent in model.agents])
    dense = integrate.rk4_dense(rhs, Y0, duration, substeps)
    return sim.Trajectory(
        ts=dense.ts,
        states=dense.ys,
        inputs=np.stack([inputs_at(t) for t in dense.ts]),
        agent_ids=tuple(ids),
        substeps=substeps,
    )


def minkowski_ball_sum(a, r):
    if r < 0:
        raise ModelError(f"negative radius increment {r}")
    return reach.Ball(a.center, a.radius + r)


def cell_contains(dec, lattice, x, slack=0.0):
    """Half-open box membership, intersected with the region ball."""
    lo, hi = dec.box(lattice)
    x = np.asarray(x, dtype=float)
    if not (np.all(x >= lo - slack) and np.all(x < hi + slack)):
        return False
    return bool(dec.region.contains(x, slack=slack))


def pruned_cells(good):
    return [sorted({l for (l, _, _) in layer}) for layer in good]


def with_scaled_dmax(params, agent_id, factor):
    d_max = dict(params.d_max)
    d_max[agent_id] = d_max[agent_id] * factor
    return replace(params, d_max=d_max)


def _simple_cycles(edges, nodes):
    adj = {v: sorted(i for (j, i) in edges if j == v) for v in nodes}
    cycles = []

    def dfs(start, v, path, on_path):
        for w in adj[v]:
            if w < start:
                continue
            if w == start:
                cycles.append(tuple(path))
            elif w not in on_path:
                on_path.add(w)
                dfs(start, w, path + [w], on_path)
                on_path.remove(w)

    for s in sorted(nodes):
        dfs(s, s, [s], {s})
    return cycles


def check_cycles(model, params):
    """Every simple coupling cycle must carry a mu-product of at least 1."""
    violations = []
    for cycle in _simple_cycles(model.edges(), model.agent_ids):
        product = 1.0
        for k, j in enumerate(cycle):
            i = cycle[(k + 1) % len(cycle)]
            product *= params.mu[(j, i)]
        if product < 1:
            violations.append(f"cycle {cycle}: mu product {product} < 1")
    return violations


def expr_to_string(node):
    """Expression text that parses back to an equal tree."""
    if isinstance(node, expr.Num):
        return f"({node.value!r})" if node.value < 0 else repr(node.value)
    if isinstance(node, expr.Coord):
        return f"{node.symbol}[{node.k + 1}]"
    if isinstance(node, expr.Norm):
        return f"norm({node.symbol})"
    if isinstance(node, expr.Call):
        return f"{node.name}({expr_to_string(node.arg)})"
    if isinstance(node, expr.Neg):
        return f"(-{expr_to_string(node.arg)})"
    return f"({expr_to_string(node.left)} {node.op} {expr_to_string(node.right)})"


def advance(cell, progress, step, table):
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


def alive(progress, step, table, m):
    """Whether the pending goal can still be claimed by step m."""
    g, s = progress
    if g >= len(table):
        return True
    goal = table[g]
    base = s if goal.relative else 0
    return step - base <= goal.b and base + goal.a <= m


def claim_options(cell, progress, step, table, m):
    """Sorted claim chains on arrival at step that can still complete by m."""
    return sorted(p for p in advance(cell, progress, step, table) if alive(p, step, table, m))


def forward_layers(ab, jobs, m):
    """planner.forward_layers as it ran before its layers were arrays: per
    job, per-step sets of (cell, claimed, last-claim-step) states, with
    one is_initiating call per state and claim options memoized per
    (cell, progress).  Returns, per job, its layers or the HorizonError
    that stopped it."""
    out = []
    for agent_id, _, table in jobs:
        start = grid.locate(ab.decs[agent_id], ab.model.agent(agent_id).x0)
        layers = [set() for _ in range(m + 1)]
        layers[0] = {(start, g, s) for (g, s) in claim_options(start, (0, 0), 0, table, m)}
        out.append(layers)
    for k in range(m):
        requests = []
        for j, (agent_id, parent_cells, _) in enumerate(jobs):
            if isinstance(out[j], HorizonError):
                continue
            parents = tuple(parent_cells[k])
            grouped = {}
            for (l, g, s) in out[j][k]:
                if is_initiating(ab, agent_id, (l,) + parents):
                    grouped.setdefault(l, set()).add((g, s))
            if grouped:
                requests.append((j, [(l,) + parents for l in sorted(grouped)], grouped))
        posts = planner._layer_posts(ab, [(jobs[j][0], configs) for j, configs, _ in requests])
        for (j, configs, grouped), succs in zip(requests, posts):
            if isinstance(succs, HorizonError):
                out[j] = succs
                continue
            table = jobs[j][2]
            options = {}
            nxt = out[j][k + 1]
            for l, succ in zip(sorted(grouped), succs):
                for l2 in succ:
                    for prog in grouped[l]:
                        key = (l2, prog)
                        if key not in options:
                            options[key] = claim_options(l2, prog, k + 1, table, m)
                        nxt.update((l2, g, s) for (g, s) in options[key])
    return out


def backward_prune(ab, agent_id, parent_cells, table, m, layers):
    """States of tuple-set layers on at least one goal-satisfying path of length m."""
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
            if not is_initiating(ab, agent_id, config):
                continue
            for l2 in ab.post(agent_id, config):
                progs = by_cell.get(l2)
                if progs and advance(l2, (g, s), k + 1, table) & progs:
                    good[k].add((l, g, s))
                    break
    return good


def iter_satisfying_paths(ab, agent_id, parent_cells, table, m, good):
    """Cell paths through tuple-set good layers in lexicographic order,
    each yielded exactly once, with one Post request per step."""
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
        succ = ab.post(agent_id, (cell,) + tuple(parent_cells[k]))
        for l2 in succ:
            progs = by_cell_layers[k + 1].get(l2)
            if not progs:
                continue
            reach = set()
            for prog in states:
                reach |= advance(l2, prog, k + 1, table)
            compatible = reach & progs
            if compatible:
                prefix.append(l2)
                yield from rec(k + 1, l2, compatible, prefix)
                prefix.pop()

    yield from rec(0, start_cell, set(by_cell_layers[0][start_cell]), [start_cell])


def first_failing_goal(layers, table):
    best = -1
    for layer in layers:
        for (_, g, _) in layer:
            best = max(best, g)
    if best < len(table):
        return f"goal {best + 1} was never claimable inside its window"
    return "goals are claimable but no path of the full plan length survives"


def state_sets(search, masks=None):
    """A planner.Search's layers as sets of (cell, claimed, last-claim-step)
    tuples, or only the states each layer's mask keeps."""
    out = []
    for k, layer in enumerate(search.layers):
        keep = np.ones(len(layer.cells), dtype=bool) if masks is None else masks[k]
        out.append({
            (tuple(cell), g, s)
            for cell, (g, s) in zip(layer.cells[keep].tolist(), layer.claims[keep].tolist())
        })
    return out


def sequential_cascade(model, ab, budget=64):
    """The cascade one agent at a time on tuple-set layers, as
    planner.cascade_synthesize ran it before agents moved in lockstep,
    backjumped and searched arrays: every turn of an agent runs its own
    forward pass, an error is raised as soon as it is met, and a failure
    returns to the agent just before."""
    order = planner.topological_order(model)
    tables = {i: planner.goal_table(ab, i) for i in model.agent_ids}
    m = planner.plan_length(ab, tables)
    explored = {i: 0 for i in model.agent_ids}
    reachable, satisfying, chosen, failure = {}, {}, {}, {}

    def solve(idx):
        if idx == len(order):
            return True
        i = order[idx]
        parent_cells = [
            tuple(chosen[j][k] for j in model.agent(i).neighbors) for k in range(m + 1)
        ]
        (layers,) = forward_layers(ab, [(i, parent_cells, tables[i])], m)
        if isinstance(layers, Exception):
            raise layers
        good = backward_prune(ab, i, parent_cells, tables[i], m, layers)
        reachable[i] = sorted({l for layer in layers for (l, _, _) in layer})
        satisfying[i] = sorted({l for layer in good for (l, _, _) in layer})
        if not good[0]:
            failure[i] = first_failing_goal(layers, tables[i])
            return False
        paths = iter_satisfying_paths(ab, i, parent_cells, tables[i], m, good)
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
    return planner._assemble_plan(
        model, ab, chosen, m, "cascade", explored, reachable, satisfying
    )


def product_successors(count, slots, generated, cap):
    """planner._product_successors as the product search ran it before its
    layers were coded as arrays: every pick of every node is formed as a
    tuple, in itertools.product order, and looked up in the layer, and the
    cap is checked at each new node.  The layer's nodes are then sorted
    into arrays, beside the node each first came from."""
    nxt = {}
    # per slot and node, its (successor cell, claim option) pairs; their
    # product is the set of synchronized successor nodes
    choices = [[[] for _ in range(count)] for _ in slots]
    for a, (rows, cells, claims, _) in enumerate(slots):
        for r, cell, claim in zip(rows.tolist(), cells.tolist(), claims.tolist()):
            choices[a][r].append((tuple(cell), tuple(claim)))
    for r in range(count):
        for pick in itertools.product(*(slot[r] for slot in choices)):
            nxt_node = tuple(zip(*pick))
            if nxt_node not in nxt:
                nxt[nxt_node] = r
                generated += 1
                if generated > cap:
                    raise planner.CapExceededError(
                        f"product search exceeded the state cap {cap}"
                    )
    nodes = sorted(nxt)
    dim = slots[0][1].shape[1]
    return (
        np.array([cells for cells, _ in nodes], dtype=int).reshape(len(nodes), len(slots), dim),
        np.array([claims for _, claims in nodes], dtype=int).reshape(len(nodes), len(slots), 2),
        np.array([nxt[node] for node in nodes], dtype=int),
    )
