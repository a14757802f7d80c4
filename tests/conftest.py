"""Shared fixtures: hand-built toy models and a random chain generator.

The generator emits coupled consensus chains whose declared bounds are
sound by a contraction argument.  For a follower with weight w tracking
a parent whose speed never exceeds M_p + v_p, the gap e = x_p - x_i
obeys d|e|/dt <= -w|e| + (M_p + v_p) + v_i, so |f_i| = w|e| stays below
max(w|e(0)|, M_p + v_p + v_i) under every admissible input.  Declaring
M_i = M_p + v_p + v_i is therefore valid whenever the initial gap is at
most M_i / w, and the raw dynamics never hit their saturation level
along true trajectories.

Goals are placed on cells of the lexicographically-least full-length
forward path, one agent at a time in topological order, which makes
every generated instance satisfiable by construction.
"""

import importlib.util
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from horizon_abs import abstraction as abstraction_mod
from horizon_abs import controller, grid, integrate, planner, wellposed
from horizon_abs import model as model_mod

FIVE_AGENTS = os.path.join(os.path.dirname(__file__), "..", "models", "five_agents.json")
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

DRAW_SUBSTEPS = 800  # reference fields may cross their saturation kink


def single_doc():
    """One drifting agent with zero coupling dynamics."""
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            {
                "id": 1,
                "dim": 2,
                "neighbors": [],
                "dynamics": {"type": "zero"},
                "v_max": 1.0,
                "M": 0.5,
                "L1": 0.0,
                "L2": 0.0,
                "x0": [0.0, 0.0],
            }
        ],
        "spec": {},
    }


def pair_doc():
    """A drifting leader and a consensus follower."""
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            {
                "id": 1,
                "dim": 2,
                "neighbors": [],
                "dynamics": {"type": "zero"},
                "v_max": 1.0,
                "M": 0.5,
                "L1": 0.0,
                "L2": 0.0,
                "x0": [0.0, 0.0],
            },
            {
                "id": 2,
                "dim": 2,
                "neighbors": [1],
                "dynamics": {"type": "linear-consensus", "weights": {"1": 1.0}},
                "v_max": 2.0,
                "M": 4.0,
                "L1": 1.0,
                "L2": 1.0,
                "x0": [1.0, 1.0],
                "reach_radius": 4.0,
            },
        ],
        "spec": {
            "1": {
                "goals": [
                    {"box": [[0.1, 0.1], [0.6, 0.6]], "window": [0.5, 1.0], "relative": False}
                ]
            },
            "2": {
                "goals": [
                    {"box": [[0.2, 0.2], [1.2, 1.2]], "window": [0.5, 1.0], "relative": False}
                ]
            },
        },
    }


def heterogeneous_doc():
    """Every dynamics variant in one coupled network, with no goals.

    Agents 3 and 4 give the same dict weights over the same two neighbors
    listed in opposite orders, so their parsed weights differ.  Agents 5
    and 9 share dynamics and neighbor count, and so do agents 1 and 10
    (with different M).
    """

    def agent(i, neighbors, dynamics, x0, M=3.0):
        return {
            "id": i, "dim": 2, "neighbors": neighbors, "dynamics": dynamics,
            "v_max": 1.0, "M": M, "L1": 0.1, "L2": 0.1, "x0": x0,
        }

    consensus = lambda weights: {"type": "linear-consensus", "weights": weights}  # noqa: E731
    return {
        "horizon": 1.0,
        "tau": 0.3,
        "agents": [
            agent(1, [], {"type": "zero"}, [0.0, 0.0], M=0.5),
            agent(2, [], {"type": "gradient-hill", "C": 1.0, "R": 4.0}, [0.7, -0.4]),
            agent(3, [1, 2], consensus({"1": 0.3, "2": 0.7}), [0.5, 0.5]),
            agent(4, [2, 1], consensus({"1": 0.3, "2": 0.7}), [-0.5, 0.5]),
            agent(5, [3], consensus([0.5]), [0.9, 0.1]),
            agent(6, [3], consensus([0.9]), [-0.3, -0.8]),
            agent(7, [5], {
                "type": "affine",
                "A": [[-0.3, 0.2], [-0.1, -0.4]],
                "B": [[[0.25, 0.0], [0.1, 0.3]]],
                "b": [0.05, -0.1],
            }, [0.2, 0.9]),
            agent(8, [6], {
                "type": "expression",
                "exprs": ["0.6*(x_j1[1]-x_i[1])", "sin(x_i[2])*0.5 + 0.2*x_j1[1]"],
            }, [-0.9, 0.3]),
            agent(9, [4], consensus([0.5]), [0.1, -0.6]),
            agent(10, [], {"type": "zero"}, [-0.6, -0.1], M=0.0),
        ],
        "spec": {},
    }


def per_agent_closed_loop(model, ab, schedule, m):
    """The closed loop agent by agent, as the simulator computed it before
    it was vectorized: one reference run and one TransitionControl per
    agent and interval, and per right-hand side evaluation one eval_f and
    one feedback call per agent.  Returns (ts, states, inputs).
    """
    dt, substeps = ab.params.dt, ab.substeps
    N, n = len(model.agents), model.dim
    pos = {i: a for a, i in enumerate(model.agent_ids)}

    def block(Y, agent):
        if not agent.neighbors:
            return np.zeros(0)
        return np.concatenate([Y[pos[j]] for j in agent.neighbors])

    total = m * substeps + 1
    ts = np.empty(total)
    states = np.empty((total, N, n))
    inputs = np.zeros((total, N, n))
    Y = np.stack([agent.x0 for agent in model.agents])
    states[0] = Y
    ts[0] = 0.0
    for k in range(m):
        controls = []
        for a, agent in enumerate(model.agents):
            step = schedule[agent.id][k]
            own, nbr = ab.config_refs(agent.id, step.config)
            ref = controller.integrate_reference(agent, own, nbr, dt, substeps, ab.integ_tol)
            controls.append(controller.TransitionControl(
                agent=agent, reference=ref, x_G=ref.own_ref, x0=Y[a], w=step.w,
                lam=ab.params.lam[agent.id], dt=dt,
            ))

        def rhs(t, flat):
            Yk = flat.reshape(N, n)
            out = np.empty_like(Yk)
            for a, agent in enumerate(model.agents):
                d = block(Yk, agent)
                out[a] = model_mod.eval_f(agent, Yk[a], d) + controls[a].k(t, Yk[a], d)
            return out.reshape(-1)

        dense = integrate.rk4_dense(rhs, Y.reshape(-1), dt, substeps)
        ys = dense.ys.reshape(-1, N, n)
        base = k * substeps
        for node in range(1 if k else 0, substeps + 1):
            ts[base + node] = k * dt + dense.ts[node]
            states[base + node] = ys[node]
        for node in range(substeps + 1):
            for a, agent in enumerate(model.agents):
                d = block(ys[node], agent)
                inputs[base + node, a] = controls[a].k(dense.ts[node], ys[node][a], d)
        Y = ys[-1]
    return ts, states, inputs


def make_model(doc):
    return model_mod.parse_model(json.dumps(doc))


def make_stack(doc, lam=None, steps=None, margin=wellposed.DEFAULT_MARGIN,
               substeps=None, integ_tol=None):
    """Parse, synthesize and abstract in one call."""
    model = make_model(doc)
    params = wellposed.synthesize(model, lam=lam, steps=steps, margin=margin)
    kwargs = {}
    if substeps is not None:
        kwargs["substeps"] = substeps
    if integ_tol is not None:
        kwargs["integ_tol"] = integ_tol
    ab = abstraction_mod.build_abstraction(model, params, **kwargs)
    return model, params, ab


def lex_least_full_path(ab, agent_id, parent_cells, m):
    """First full-length cell path in lexicographic order, or None."""
    table = []
    layers = planner.forward_layers(ab, agent_id, parent_cells, table, m)
    good = planner.backward_prune(ab, agent_id, parent_cells, table, m, layers)
    for path in planner.iter_satisfying_paths(ab, agent_id, parent_cells, table, m, good):
        return path
    return None


def _chain_skeleton(rng):
    n_agents = int(rng.integers(1, 4))
    T = float(rng.uniform(0.75, 1.0))
    tau = T * float(rng.uniform(0.3, 0.4))
    root_kind = rng.choice(["zero", "hill"])
    agents = []
    v = float(rng.uniform(1.0, 2.0))
    if root_kind == "zero":
        dynamics = {"type": "zero"}
        M, L1, L2 = 0.0, 0.0, 0.0
    else:
        C = float(rng.uniform(1.0, 2.0))
        R = math.pi * math.sqrt(C) * float(rng.uniform(1.0, 1.6))
        dynamics = {"type": "gradient-hill", "C": C, "R": R}
        M, L1, L2 = C * math.pi / R, 0.0, C * math.pi**2 / R**2
    x0 = rng.uniform(-0.5, 0.5, size=2)
    agents.append(
        {
            "id": 1,
            "dim": 2,
            "neighbors": [],
            "dynamics": dynamics,
            "v_max": v,
            "M": M,
            "L1": L1,
            "L2": L2,
            "x0": [float(c) for c in x0],
        }
    )
    for k in range(2, n_agents + 1):
        parent = agents[-1]
        w = float(rng.uniform(0.6, 1.0))
        v = parent["v_max"] * float(rng.uniform(1.3, 1.8))
        M = parent["M"] + parent["v_max"] + v
        gap = float(rng.uniform(0.3, min(1.2, 0.8 * M / w)))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        x0 = np.asarray(parent["x0"]) + gap * direction
        agents.append(
            {
                "id": k,
                "dim": 2,
                "neighbors": [k - 1],
                "dynamics": {"type": "linear-consensus", "weights": {str(k - 1): w}},
                "v_max": v,
                "M": M,
                "L1": w,
                "L2": w,
                "x0": [float(c) for c in x0],
            }
        )
    return {"horizon": T, "tau": tau, "agents": agents, "spec": {}}


def random_instance(rng, max_steps=8):
    """One satisfiable random chain: (doc, model, params, abstraction).

    Goals are single-cell boxes on the lexicographically least forward
    paths, with windows isolating one sampling instant, so the cascade
    finds the same paths without backtracking.
    """
    while True:
        doc = _chain_skeleton(rng)
        base = make_model(doc)
        lam = {a.id: float(rng.uniform(0.5, 0.62)) for a in base.agents}
        probe = wellposed.DiscretizationParams(
            dt=0.0, steps=0, lam=lam,
            mu={e: 1.0 for e in base.edges()}, d_max={}, margin=0.999,
        )
        sup_dt = min(wellposed.dt_bound(base, probe, a.id) for a in base.agents)
        target = 0.5 * min(sup_dt, base.tau)
        steps = math.ceil(base.horizon / target)
        if steps > max_steps:
            continue
        steps = int(rng.integers(steps, max_steps + 1))
        params = wellposed.synthesize(base, lam=lam, steps=steps)
        ab = abstraction_mod.build_abstraction(base, params)

        k_goal = {a.id: int(rng.integers(2, min(5, steps) + 1)) for a in base.agents}
        m = max(k_goal.values())
        order = planner.topological_order(base)
        chosen = {}
        ok = True
        for i in order:
            agent = base.agent(i)
            parent_cells = [
                tuple(chosen[j][k] for j in agent.neighbors) for k in range(m + 1)
            ]
            path = lex_least_full_path(ab, i, parent_cells, m)
            if path is None:
                ok = False
                break
            chosen[i] = path
        if not ok:
            continue

        spec = {}
        for i in order:
            cell = chosen[i][k_goal[i]]
            lo, hi = ab.decs[i].box(cell)
            a = (k_goal[i] - 0.4) * params.dt
            b = (k_goal[i] + 0.4) * params.dt
            spec[str(i)] = {
                "goals": [
                    {
                        "box": [[float(c) for c in lo], [float(c) for c in hi]],
                        "window": [a, b],
                        "relative": False,
                    }
                ]
            }
        doc["spec"] = spec
        model = make_model(doc)
        ab = abstraction_mod.build_abstraction(model, params)
        return doc, model, params, ab


@pytest.fixture(scope="session")
def five_model():
    with open(FIVE_AGENTS) as fh:
        return model_mod.parse_model(fh.read())


@pytest.fixture(scope="session")
def five_params(five_model):
    return wellposed.synthesize(five_model, lam={1: 0.35, 5: 0.35}, steps=12)


@pytest.fixture(scope="session")
def five_abstraction(five_model, five_params):
    return abstraction_mod.build_abstraction(five_model, five_params)


@pytest.fixture(scope="session")
def pair_stack():
    return make_stack(pair_doc(), lam={1: 0.55, 2: 0.55}, steps=5)


@pytest.fixture(scope="session")
def instance_pool():
    """Twenty generated instances shared across the randomized criteria."""
    rng = np.random.default_rng(20260814)
    return [random_instance(rng) for _ in range(20)]


def brute_force_good_layers(ab, agent_id, parent_cells, table, m, start_cell=None):
    """Independent oracle for goal-satisfying planner states.

    Enumerates every full-length cell path by depth-first search over
    Post sets, then every nondecreasing claim tuple (t_1 <= ... <= t_G)
    placing goal g at step t_g inside its window, measured from the
    previous claim for relative goals.  A planner state (cell, g, s) at
    step k is satisfiable exactly when some valid pair snapshots to it:
    g = #{claims <= k} and s = t_g.  Returns the per-step state sets and
    the sorted satisfying paths.
    """
    from horizon_abs import grid as grid_mod

    dec = ab.decs[agent_id]
    agent = ab.model.agent(agent_id)
    if start_cell is None:
        start_cell = grid_mod.locate(dec, agent.x0)
    paths = []

    def rec(k, cell, prefix):
        if k == m:
            paths.append(tuple(prefix))
            return
        if cell not in dec.initiating_set:
            return
        if any(
            parent not in ab.decs[j].initiating_set
            for j, parent in zip(agent.neighbors, parent_cells[k])
        ):
            return
        for nxt in ab.post(agent_id, (cell,) + tuple(parent_cells[k])):
            prefix.append(nxt)
            rec(k + 1, nxt, prefix)
            prefix.pop()

    rec(0, start_cell, [start_cell])

    G = len(table)
    good = [set() for _ in range(m + 1)]
    satisfying = set()
    for p in paths:

        def claim_tuples(g, prev):
            if g == G:
                return [()]
            goal = table[g]
            base = prev if goal.relative else 0
            out = []
            for t in range(max(prev, base + goal.a), min(base + goal.b, m) + 1):
                if p[t] in goal.cells:
                    out.extend((t,) + rest for rest in claim_tuples(g + 1, t))
            return out

        for tup in claim_tuples(0, 0):
            satisfying.add(p)
            for k in range(m + 1):
                done = [t for t in tup if t <= k]
                good[k].add((p[k], len(done), done[-1] if done else 0))
    return good, sorted(satisfying)


def ring_workloads():
    """The benchmark's workload module, which generates the ring model."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def ring_doc(seed):
    """The benchmark's seeded 3-agent expression ring model document.

    Goals are placed from the skeleton's discretization exactly as
    ``perfbench/workloads.py`` places them from ``abstract`` output.
    """
    workloads = ring_workloads()
    lam = {i: workloads.RING_LAMBDA for i in workloads.RING_IDS}
    skeleton = workloads.ring_skeleton()
    _, params, ab = make_stack(skeleton, lam=lam, steps=workloads.RING_STEPS)
    discretization = {
        "params": {"dt": float(params.dt)},
        "agents": {
            str(i): {"anchor": [float(v) for v in dec.anchor], "side": float(dec.side)}
            for i, dec in ab.decs.items()
        },
    }
    return workloads.ring_model(skeleton, discretization, seed)


def ring_stack(seed):
    """The seeded ring of ``ring_doc``, built in-process."""
    workloads = ring_workloads()
    lam = {i: workloads.RING_LAMBDA for i in workloads.RING_IDS}
    return make_stack(ring_doc(seed), lam=lam, steps=workloads.RING_STEPS)


def scalar_label_cells(dec, lo, hi):
    """Goal labeling cell by cell, as ``grid.label_cells`` did before it
    used one mask over the lattice."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = []
    for lattice in dec.sorted_indices:
        cell_lo, cell_hi = dec.box(lattice)
        if np.all(cell_lo >= lo - 1e-12) and np.all(cell_hi <= hi + 1e-12):
            out.append(lattice)
    return out


def scalar_cells_intersecting_ball(dec, ball):
    """The ball-cell intersection one lattice point at a time, as
    ``grid.cells_intersecting_ball`` did before it tested a whole batch of
    balls in one array pass."""
    lo_idx = np.floor((ball.center - ball.radius - dec.anchor) / dec.side).astype(int)
    hi_idx = np.floor((ball.center + ball.radius - dec.anchor) / dec.side).astype(int)
    hits = []
    for lattice in itertools.product(
        *(range(int(lo_idx[k]), int(hi_idx[k]) + 1) for k in range(dec.dim))
    ):
        if lattice not in dec.index_set:
            continue
        if grid.witness_in_cell_ball(dec, lattice, ball) is not None:
            hits.append(lattice)
    return sorted(hits)


def scalar_witness_sweep(dec, lo, hi, ball):
    """The witness sweep point by point over a freshly built 256-point
    Halton sequence, as ``grid.witness_in_cell_ball`` ran it before it
    tested a module-level table in one mask."""
    count, n = 256, dec.dim
    primes = (2, 3, 5, 7, 11, 13, 17)
    table = np.empty((count, n))
    for axis in range(n):
        base = primes[axis % len(primes)]
        seq = np.zeros(count)
        denom = 1.0
        rem = np.arange(1, count + 1).astype(float)
        while np.any(rem > 0):
            denom *= base
            seq += (rem % base) / denom
            rem = rem // base
        table[:, axis] = seq
    for u in table:
        p = lo + u * dec.side
        if ball.contains(p) and dec.region.contains(p) and np.all(p < hi):
            return p
    return None


def per_combination_product_layers(model, ab):
    """The product search's layers as it built them before batching.

    Node by node in sorted order, Posts are requested one configuration at
    a time, every synchronized combination of successor cells is formed,
    and each agent's claim options are recomputed for it.  Stops at the
    first layer holding a complete node.  Returns the layers, each a dict
    from node to the node that first generated it, the number of states
    generated and the chosen cell path per agent (None when no layer
    completes).
    """
    ids = model.agent_ids
    tables = {i: planner.goal_table(ab, i) for i in ids}
    m_max = planner.plan_length(ab, tables)

    def options(a, cell, prog, step):
        table = tables[ids[a]]
        return sorted(
            p for p in planner._advance(cell, prog, step, table)
            if planner._alive(p, step, table, m_max)
        )

    start = tuple(grid.locate(ab.decs[i], model.agent(i).x0) for i in ids)
    layers = [{
        (start, combo): None
        for combo in itertools.product(*(options(a, start[a], (0, 0), 0) for a in range(len(ids))))
    }]
    generated = len(layers[0])
    for k in range(m_max + 1):
        complete = sorted(
            node for node in layers[k]
            if all(p[0] == len(tables[i]) for p, i in zip(node[1], ids))
        )
        if complete:
            chain = [complete[0]]
            for layer in reversed(layers[1:]):
                chain.append(layer[chain[-1]])
            chain.reverse()
            return layers, generated, {
                i: [node[0][a] for node in chain] for a, i in enumerate(ids)
            }
        if k == m_max:
            break
        nxt = {}
        for node in sorted(layers[k]):
            cells, progress = node
            assignment = dict(zip(ids, cells))
            configs = [grid.pr(model, assignment, i) for i in ids]
            if not all(ab.is_initiating(i, c) for i, c in zip(ids, configs)):
                continue
            posts = [ab.post(i, c) for i, c in zip(ids, configs)]
            for combo in itertools.product(*posts):
                prog_options = [options(a, combo[a], progress[a], k + 1) for a in range(len(ids))]
                for prog_combo in itertools.product(*prog_options):
                    if (combo, prog_combo) not in nxt:
                        nxt[(combo, prog_combo)] = node
                        generated += 1
        layers.append(nxt)
    return layers, generated, None


def run_cli(args, cwd=None):
    cmd = [sys.executable, "-m", "horizon_abs.cli"] + [str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


CRITERION_LINES = []


def record_criterion(number, ok, detail):
    CRITERION_LINES.append(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    )


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES, key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
