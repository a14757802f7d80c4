"""Network model ingestion and validation.

The model document is JSON with top-level keys ``agents``, ``horizon``,
``tau`` (optional) and ``spec`` (optional).  Each agent entry carries
its coupling neighbors, a tagged dynamics union, the input bound, the
declared speed bound M and Lipschitz constants L1 (neighbor block) and
L2 (own state), the initial state and an optional reachable-set radius.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr, reach
from .errors import ModelError

_HILL_SERIES_CUTOFF = 1e-8


class ZeroDynamics:
    variant = "zero"

    def key(self):
        return ()

    def eval(self, x_i, neighbors):
        return np.zeros_like(np.asarray(x_i, dtype=float))


class ConsensusDynamics:
    """f = sum_k weight_k * (x_jk - x_i), the standard linear consensus field."""

    variant = "linear-consensus"

    def __init__(self, weights):
        self.weights = tuple(float(w) for w in weights)

    def key(self):
        return self.weights

    def eval(self, x_i, neighbors):
        x_i = np.asarray(x_i, dtype=float)
        out = np.zeros_like(x_i)
        for w, block in zip(self.weights, neighbors):
            out = out + w * (np.asarray(block, dtype=float) - x_i)
        return out


class HillDynamics:
    """Negative gradient of the cosine hill C*(1 + cos(pi*|x|/R)), zero outside |x| >= R.

    The gradient points radially away from the origin with magnitude
    C*(pi/R)*sin(pi*|x|/R).  Near the origin the radial unit vector is
    ill conditioned, so a series branch C*(pi/R)^2 * x takes over below
    a small norm cutoff; the field extends continuously to 0 at x = 0.
    """

    variant = "gradient-hill"

    def __init__(self, C, R):
        if C <= 0 or R <= 0:
            raise ModelError("gradient-hill requires C > 0 and R > 0")
        self.C = float(C)
        self.R = float(R)

    def key(self):
        return (self.C, self.R)

    def eval(self, x_i, neighbors):
        x = np.asarray(x_i, dtype=float)
        rho = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        coef = self.C * math.pi / self.R
        # rho = 0 divides by 1 instead; the series branch below replaces that row anyway
        radial = coef * np.sin(math.pi * rho / self.R) / np.where(rho > 0, rho, 1.0)
        series = self.C * (math.pi / self.R) ** 2
        scale = np.where(rho < _HILL_SERIES_CUTOFF, series, radial)
        scale = np.where(rho >= self.R, 0.0, scale)
        return scale * x


class AffineDynamics:
    """f = A x_i + sum_k B_k x_jk + b with per-block matrices.

    The products are row-wise sums rather than matmul, so a row's value
    does not depend on how many rows are evaluated with it.
    """

    variant = "affine"

    def __init__(self, A, B_blocks, b):
        self.A = np.asarray(A, dtype=float)
        self.B_blocks = tuple(np.asarray(B, dtype=float) for B in B_blocks)
        self.b = np.asarray(b, dtype=float)

    def key(self):
        return tuple(m.tobytes() for m in (self.A, *self.B_blocks, self.b))

    def eval(self, x_i, neighbors):
        out = _rowwise_product(self.A, x_i) + self.b
        for B, block in zip(self.B_blocks, neighbors):
            out = out + _rowwise_product(B, block)
        return out


def _rowwise_product(A, x):
    """A @ x for every row x of the batch."""
    x = np.asarray(x, dtype=float)
    return np.sum(x[..., None, :] * A, axis=-1)


class ExpressionDynamics:
    variant = "expression"

    def __init__(self, texts, params):
        self.texts = tuple(texts)
        self.params = dict(params)
        self.asts = []
        self.symbols = set()
        for text in self.texts:
            ast, used = expr.parse_expression(text, self.params)
            self.asts.append(ast)
            self.symbols |= used

    def key(self):
        return (self.texts, tuple(sorted(self.params.items())))

    def eval(self, x_i, neighbors):
        x_i = np.asarray(x_i, dtype=float)
        # an overflow or an invalid operation yields inf or nan, which the
        # endpoint and audit checks downstream reject with a HorizonError
        with np.errstate(over="ignore", invalid="ignore"):
            cols = [
                np.broadcast_to(
                    np.asarray(expr.eval_ast(ast, x_i, neighbors), dtype=float),
                    x_i.shape[:-1],
                )
                for ast in self.asts
            ]
        return np.stack(cols, axis=-1)


@dataclass(frozen=True, eq=False)
class Goal:
    lo: np.ndarray
    hi: np.ndarray
    window: tuple
    relative: bool = True


@dataclass(frozen=True, eq=False)
class AgentModel:
    id: int
    dim: int
    neighbors: tuple
    dynamics: object
    v_max: float
    M: float
    L1: float
    L2: float
    x0: np.ndarray
    reach_radius: float = None
    goals: tuple = ()


@dataclass(frozen=True, eq=False)
class NetworkModel:
    agents: tuple
    horizon: float
    tau: float
    raw: dict = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {a.id: a for a in self.agents})

    def agent(self, agent_id):
        return self._by_id[agent_id]

    @property
    def agent_ids(self):
        return tuple(a.id for a in self.agents)

    @property
    def dim(self):
        return self.agents[0].dim

    def edges(self):
        """Directed influence edges (j, i) for every neighbor j of agent i."""
        return tuple((j, a.id) for a in self.agents for j in a.neighbors)


def eval_f(agent, x_i, x_j):
    """Evaluate the agent's raw vector field.

    ``x_j`` is the concatenated neighbor block of width N_i * n (any
    leading batch shape); pass an empty trailing axis when the agent has
    no neighbors.
    """
    x_i = np.asarray(x_i, dtype=float)
    blocks = split_neighbor_block(agent, x_j)
    return np.asarray(agent.dynamics.eval(x_i, blocks), dtype=float)


def saturate(v, bound):
    """Radial projection onto the closed ball of the given radius (bound >= 0)."""
    v = np.asarray(v, dtype=float)
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    # rows at or under the bound keep the factor 1 and never divide, so a zero norm is never read
    return v * np.divide(bound, norms, out=np.ones_like(norms), where=norms > bound)


def split_neighbor_block(agent, x_j):
    n = agent.dim
    count = len(agent.neighbors)
    if count == 0:
        return []
    x_j = np.asarray(x_j, dtype=float)
    if x_j.shape[-1] != count * n:
        raise ModelError(
            f"neighbor block of agent {agent.id} must have width {count * n}, "
            f"got {x_j.shape[-1]}"
        )
    return [x_j[..., k * n : (k + 1) * n] for k in range(count)]


def default_reach_radius(agent, T, tau):
    return (agent.M + agent.v_max) * (T - tau)


def reach_family(model, agent_id):
    agent = model.agent(agent_id)
    base_radius = agent.reach_radius
    if base_radius is None:
        base_radius = default_reach_radius(agent, model.horizon, model.tau)
    return reach.ReachFamily(
        agent_id=agent.id,
        base=reach.Ball(agent.x0, base_radius),
        c_rate=agent.M + agent.v_max,
        tau=model.tau,
        T=model.horizon,
    )


def _require(cond, message):
    if not cond:
        raise ModelError(message)


def _floats(values, name, length=None):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as e:
        raise ModelError(f"{name} must be a numeric array: {e}") from None
    if length is not None and arr.shape != (length,):
        raise ModelError(f"{name} must have length {length}, got shape {arr.shape}")
    _require(np.all(np.isfinite(arr)), f"{name} must be finite, got {arr.tolist()}")
    return arr


def _scalar(value, name):
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{name} must be a number, got {value!r}") from None
    _require(math.isfinite(x), f"{name} must be finite, got {value!r}")
    return x


def _consensus_weights(weights, neighbors, agent_id):
    """Weights as a list in neighbor order or an object keyed by neighbor id."""
    if isinstance(weights, dict):
        _require(
            set(weights) == {str(j) for j in neighbors},
            f"agent {agent_id}: consensus weights must be keyed by the neighbor ids "
            f"{list(neighbors)}, got {sorted(weights)}",
        )
        weights = [weights[str(j)] for j in neighbors]
    return _floats(weights, f"agent {agent_id} consensus weights", len(neighbors))


def _parse_dynamics(entry, n, neighbors, agent_id):
    _require(isinstance(entry, dict), f"agent {agent_id}: dynamics must be an object")
    neighbor_count = len(neighbors)
    variant = entry.get("type", entry.get("variant"))
    if variant == "zero":
        return ZeroDynamics()
    if variant == "linear-consensus":
        weights = entry.get("weights", [1.0] * neighbor_count)
        return ConsensusDynamics(_consensus_weights(weights, neighbors, agent_id))
    if variant == "gradient-hill":
        _require(
            "C" in entry and "R" in entry,
            f"agent {agent_id}: gradient-hill needs C and R",
        )
        return HillDynamics(
            _scalar(entry["C"], f"agent {agent_id}: C"),
            _scalar(entry["R"], f"agent {agent_id}: R"),
        )
    if variant == "affine":
        A = _floats(entry.get("A", np.zeros((n, n))), f"agent {agent_id} affine A")
        B_blocks = entry.get("B", [np.zeros((n, n))] * neighbor_count)
        b = _floats(entry.get("b", np.zeros(n)), f"agent {agent_id} affine b")
        _require(
            isinstance(B_blocks, list) and len(B_blocks) == neighbor_count,
            f"agent {agent_id}: one B block per neighbor",
        )
        B_blocks = [_floats(B, f"agent {agent_id} affine B") for B in B_blocks]
        dyn = AffineDynamics(A, B_blocks, b)
        _require(dyn.A.shape == (n, n), f"agent {agent_id}: A must be {n}x{n}")
        for B in dyn.B_blocks:
            _require(B.shape == (n, n), f"agent {agent_id}: B blocks must be {n}x{n}")
        _require(dyn.b.shape == (n,), f"agent {agent_id}: offset b must have length {n}")
        return dyn
    if variant == "expression":
        exprs = entry.get("exprs")
        _require(
            isinstance(exprs, list) and len(exprs) == n,
            f"agent {agent_id}: expression dynamics needs {n} coordinate expressions",
        )
        params = entry.get("params", {})
        _require(isinstance(params, dict), f"agent {agent_id}: params must be an object")
        params = {k: _scalar(v, f"agent {agent_id}: param {k}") for k, v in params.items()}
        dyn = ExpressionDynamics(exprs, params)
        for sym in dyn.symbols:
            if sym != "x_i":
                k = int(sym[3:])
                _require(
                    k <= neighbor_count,
                    f"agent {agent_id}: expression references {sym} but only "
                    f"{neighbor_count} neighbors are declared",
                )
        return dyn
    raise ModelError(f"agent {agent_id}: unknown dynamics variant {variant!r}")


def _parse_goals(entries, n, agent_id, horizon):
    goals = []
    for g in entries:
        _require(isinstance(g, dict), f"agent {agent_id}: goal must be an object")
        box = g.get("box")
        _require(
            isinstance(box, list) and len(box) == 2,
            f"agent {agent_id}: goal box must be [[lo], [hi]]",
        )
        lo = _floats(box[0], f"agent {agent_id} goal lo", n)
        hi = _floats(box[1], f"agent {agent_id} goal hi", n)
        _require(np.all(lo < hi), f"agent {agent_id}: goal box must have lo < hi")
        window = g.get("window")
        _require(
            isinstance(window, list) and len(window) == 2,
            f"agent {agent_id}: goal window must be [a, b]",
        )
        a = _scalar(window[0], f"agent {agent_id}: goal window start")
        b = _scalar(window[1], f"agent {agent_id}: goal window end")
        _require(0 <= a <= b, f"agent {agent_id}: goal window needs 0 <= a <= b")
        _require(b <= horizon, f"agent {agent_id}: goal window end {b} exceeds horizon")
        goals.append(Goal(lo=lo, hi=hi, window=(a, b), relative=bool(g.get("relative", True))))
    # worst-case completion must fit in the horizon
    deadline = 0.0
    for g in goals:
        deadline = g.window[1] if not g.relative else deadline + g.window[1]
        _require(
            deadline <= horizon + 1e-12,
            f"agent {agent_id}: cumulative goal deadlines exceed the horizon",
        )
    return tuple(goals)


def parse_model(text):
    """Parse and validate a model document; raises ModelError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model document is not valid JSON: {e}") from None
    _require(isinstance(doc, dict), "model document must be a JSON object")
    _require("agents" in doc, "model document needs an 'agents' array")
    _require("horizon" in doc, "model document needs a 'horizon'")

    T = _scalar(doc["horizon"], "horizon")
    _require(T > 0, f"horizon must be positive, got {T}")
    tau = doc.get("tau")
    if tau is not None:
        tau = _scalar(tau, "tau")
        _require(0 < tau < T, f"tau must lie in (0, horizon); got {tau}")

    entries = doc["agents"]
    _require(isinstance(entries, list) and entries, "'agents' must be a non-empty array")
    for e in entries:
        _require(isinstance(e, dict), f"agent entry must be an object, got {e!r}")

    ids = [e.get("id") for e in entries]
    for i in ids:
        _require(isinstance(i, int) and i >= 1, f"agent id must be a positive integer, got {i!r}")
    _require(len(set(ids)) == len(ids), "duplicate agent ids")
    id_set = set(ids)

    dims = {int(_scalar(e.get("dim", 0), "state dimension")) for e in entries}
    _require(len(dims) == 1, "all agents must share one state dimension")
    n = dims.pop()
    _require(n >= 1, "state dimension must be at least 1")

    spec_doc = doc.get("spec", {})
    _require(isinstance(spec_doc, dict), "'spec' must map agent ids to goal lists")

    agents = []
    for e in entries:
        agent_id = e["id"]
        neighbors = e.get("neighbors", [])
        _require(
            isinstance(neighbors, list) and all(type(j) is int for j in neighbors),
            f"agent {agent_id}: neighbors must be an array of agent ids, got {neighbors!r}",
        )
        neighbors = tuple(neighbors)
        for j in neighbors:
            _require(j in id_set, f"agent {agent_id}: neighbor id {j} does not exist")
            _require(j != agent_id, f"agent {agent_id}: cannot neighbor itself")
        _require(
            len(set(neighbors)) == len(neighbors),
            f"agent {agent_id}: duplicate neighbor ids",
        )
        v_max = _scalar(e.get("v_max", 0), f"agent {agent_id}: v_max")
        _require(v_max > 0, f"agent {agent_id}: v_max must be positive")
        M = _scalar(e.get("M", 0), f"agent {agent_id}: M")
        _require(M >= 0, f"agent {agent_id}: M must be nonnegative")
        L1 = _scalar(e.get("L1", 0), f"agent {agent_id}: L1")
        L2 = _scalar(e.get("L2", 0), f"agent {agent_id}: L2")
        _require(L1 >= 0 and L2 >= 0, f"agent {agent_id}: Lipschitz constants must be nonnegative")
        x0 = _floats(e.get("x0"), f"agent {agent_id} x0", n)
        reach_radius = e.get("reach_radius")
        if reach_radius is not None:
            reach_radius = _scalar(reach_radius, f"agent {agent_id}: reach_radius")
            _require(reach_radius > 0, f"agent {agent_id}: reach_radius must be positive")
        spec_entry = spec_doc.get(str(agent_id), {"goals": []})
        if isinstance(spec_entry, dict):
            spec_entry = spec_entry.get("goals", [])
        _require(
            isinstance(spec_entry, list),
            f"agent {agent_id}: spec entry must be {{'goals': [...]}}",
        )
        goals = _parse_goals(spec_entry, n, agent_id, T)
        agents.append(
            AgentModel(
                id=agent_id,
                dim=n,
                neighbors=neighbors,
                dynamics=_parse_dynamics(e.get("dynamics"), n, neighbors, agent_id),
                v_max=v_max,
                M=M,
                L1=L1,
                L2=L2,
                x0=x0,
                reach_radius=reach_radius,
                goals=goals,
            )
        )

    agents.sort(key=lambda a: a.id)
    if tau is None:
        tau = T / 5.0
    return NetworkModel(agents=tuple(agents), horizon=T, tau=tau, raw=doc)


@dataclass
class BoundsReport:
    entries: dict
    violations: list

    @property
    def ok(self):
        return not self.violations


_SAMPLED_LABELS = {
    "sup_f": "|f|",
    "ratio_M": "|f|/M",
    "worst_L1": "neighbor quotient",
    "worst_L2": "state quotient",
}


def validate_bounds(model, samples, seed=0):
    """Monte-Carlo check of the declared M, L1, L2 bounds.

    Points are drawn uniformly from the product of the agents' horizon
    balls.  Violations are report entries, never exceptions; declared
    bounds remain the user's responsibility.  A sampled value that is not
    finite (a NaN field, or |f|/M with M = 0) is reported as None with a
    violation of its own.
    """
    if samples < 1:
        raise ModelError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    regions = {a.id: reach.reach_at(reach_family(model, a.id), model.horizon) for a in model.agents}
    entries = {}
    violations = []
    for agent in model.agents:
        own = _ball_samples(rng, regions[agent.id], samples)
        nbrs = [_ball_samples(rng, regions[j], samples) for j in agent.neighbors]
        block = np.concatenate(nbrs, axis=-1) if nbrs else np.zeros((samples, 0))
        f = eval_f(agent, own, block)
        sup_f = float(np.max(np.sqrt(np.sum(f * f, axis=-1))))
        ratio_M = sup_f / agent.M if agent.M > 0 else (0.0 if sup_f == 0 else math.inf)

        g = saturate(f, agent.M)

        own2 = _ball_samples(rng, regions[agent.id], samples)
        g2 = saturate(eval_f(agent, own2, block), agent.M)
        worst_L2 = _worst_quotient(own, own2, g, g2)

        if agent.neighbors:
            nbrs2 = [_ball_samples(rng, regions[j], samples) for j in agent.neighbors]
            block2 = np.concatenate(nbrs2, axis=-1)
            g3 = saturate(eval_f(agent, own, block2), agent.M)
            worst_L1 = _worst_quotient(block, block2, g, g3)
        else:
            worst_L1 = 0.0

        entry = {
            "sup_f": sup_f,
            "ratio_M": ratio_M,
            "worst_L1": worst_L1,
            "worst_L2": worst_L2,
        }
        for key, label in _SAMPLED_LABELS.items():
            if not math.isfinite(entry[key]):
                entry[key] = None
                violations.append(f"agent {agent.id}: sampled {label} is not finite")
        entries[agent.id] = entry
        if entry["sup_f"] is not None and sup_f > agent.M * (1 + 1e-12):
            violations.append(f"agent {agent.id}: sampled |f| = {sup_f} exceeds M = {agent.M}")
        if entry["worst_L1"] is not None and worst_L1 > agent.L1 * (1 + 1e-12):
            violations.append(
                f"agent {agent.id}: sampled neighbor quotient {worst_L1} exceeds L1 = {agent.L1}"
            )
        if entry["worst_L2"] is not None and worst_L2 > agent.L2 * (1 + 1e-12):
            violations.append(
                f"agent {agent.id}: sampled state quotient {worst_L2} exceeds L2 = {agent.L2}"
            )
    return BoundsReport(entries=entries, violations=violations)


def _worst_quotient(x, x2, g, g2):
    """Largest sampled difference quotient |g2 - g| / |x2 - x| over the rows."""
    dx = np.sqrt(np.sum((x2 - x) ** 2, axis=-1))
    dg = np.sqrt(np.sum((g2 - g) ** 2, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(dx > 0, dg / dx, 0.0)
    return float(np.max(q)) if q.size else 0.0


def _ball_samples(rng, ball, count):
    n = ball.center.shape[0]
    direction = rng.standard_normal((count, n))
    direction /= np.maximum(np.sqrt(np.sum(direction**2, axis=-1, keepdims=True)), 1e-300)
    radii = ball.radius * rng.random(count) ** (1.0 / n)
    return ball.center + direction * radii[:, None]
