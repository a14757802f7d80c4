"""The benchmark's two workloads and the seeded ring-model generator.

Each workload is a model file plus the flags shared by every command of
the pipeline ``abstract -> plan -> validate -> render -> chain``.  The
program receives only the generated files and flags; the seed never
reaches it except as the ``--seed`` of the bounds report.
"""

import json
import math
import random

# five_agents: the paper's scenario.  The closed loop dominates (validate
# is about 10-14 s of an about 18 s run).  Large grids of 42,740 cells
# make goal labeling (about 2.0 s) and grid builds (about 0.45 s in every
# command) visible.  Post requests arrive batched, about 33
# configurations per integration.  Dynamics are built-in (consensus,
# gradient-hill), so the expr layer does no work.
FIVE_AGENTS_MODEL = "models/five_agents.json"
FIVE_AGENTS_FLAGS = ["--steps", "12", "--lambda", "1=0.35", "--lambda", "5=0.35"]

# ring_product: a seeded 3-agent directed ring (1<-3, 2<-1, 3<-2).  It
# uses the same layers in the opposite way.  The cycle makes
# --strategy auto pick the product planner.  Post requests arrive one
# configuration at a time (hundreds of 1-row integrations dominate plan).
# The right-hand side is evaluated through the expr interpreter.  Grids
# are small (2,552 cells), so labeling and grid builds cost almost
# nothing.  The product search generated 7,912 states on 30 of 32 seeds
# tried and 7,844 on the other two, so the seed moves goals while the work
# stays nearly the same.
RING_IDS = (1, 2, 3)
RING_PARENT = {1: 3, 2: 1, 3: 2}
RING_RADIUS = 0.5
RING_LAMBDA = 0.35
RING_STEPS = 6
RING_GOAL_STEP = 3
RING_V_MAX = 1.0
RING_GAIN = 0.5
RING_FLAGS = ["--steps", str(RING_STEPS)] + [
    arg for i in RING_IDS for arg in ("--lambda", f"{i}={RING_LAMBDA}")
]

WORKLOADS = ("five_agents", "ring_product")


def ring_skeleton():
    """The ring model without goals; its discretization sizes the goals."""
    agents = []
    for k, i in enumerate(RING_IDS):
        angle = 2.0 * math.pi * k / len(RING_IDS)
        agents.append({
            "id": i,
            "dim": 2,
            "neighbors": [RING_PARENT[i]],
            "dynamics": {
                "type": "expression",
                "exprs": [f"{RING_GAIN}*(x_j1[{c}]-x_i[{c}])" for c in (1, 2)],
            },
            "v_max": RING_V_MAX,
            "M": 1.5,
            "L1": 0.5,
            "L2": 0.5,
            "x0": [RING_RADIUS * math.cos(angle), RING_RADIUS * math.sin(angle)],
        })
    return {"horizon": 1.0, "tau": 0.3, "agents": agents}


def _drift(x0, t, substeps=1000):
    """Zero-input ring consensus x_i' = gain*(x_parent - x_i), by RK4."""
    h = t / substeps

    def rhs(x):
        return {i: [RING_GAIN * (x[RING_PARENT[i]][c] - x[i][c]) for c in (0, 1)]
                for i in RING_IDS}

    def shift(x, d, s):
        return {i: [x[i][c] + s * d[i][c] for c in (0, 1)] for i in RING_IDS}

    x = {i: list(v) for i, v in x0.items()}
    for _ in range(substeps):
        k1 = rhs(x)
        k2 = rhs(shift(x, k1, h / 2))
        k3 = rhs(shift(x, k2, h / 2))
        k4 = rhs(shift(x, k3, h))
        x = {i: [x[i][c] + h / 6 * (k1[i][c] + 2 * k2[i][c] + 2 * k3[i][c] + k4[i][c])
                 for c in (0, 1)] for i in RING_IDS}
    return x


def ring_model(skeleton, discretization, seed):
    """Add one absolute goal per agent to the skeleton.

    The goal is the grid cell holding the agent's zero-input drift state
    at step 3, moved by 0.5*3*lambda*dt*v_max in a seeded direction; its
    window is [2.6*dt, 3.4*dt], so only step 3 can claim it.
    """
    rng = random.Random(seed)
    dt = discretization["params"]["dt"]
    x0 = {a["id"]: a["x0"] for a in skeleton["agents"]}
    drift = _drift(x0, RING_GOAL_STEP * dt)
    reach = 0.5 * RING_GOAL_STEP * RING_LAMBDA * dt * RING_V_MAX
    doc = json.loads(json.dumps(skeleton))
    doc["spec"] = {}
    for i in RING_IDS:
        phi = 2.0 * math.pi * rng.random()
        point = [drift[i][0] + reach * math.cos(phi), drift[i][1] + reach * math.sin(phi)]
        agent = discretization["agents"][str(i)]
        anchor, side = agent["anchor"], agent["side"]
        lattice = [math.floor((point[c] - anchor[c]) / side) for c in (0, 1)]
        lo = [anchor[c] + side * lattice[c] for c in (0, 1)]
        hi = [lo[c] + side for c in (0, 1)]
        doc["spec"][str(i)] = {"goals": [{
            "box": [lo, hi],
            "window": [2.6 * dt, 3.4 * dt],
            "relative": False,
        }]}
    return doc
