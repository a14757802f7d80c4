"""Network model ingestion and validation.

The model document is JSON with top-level keys ``agents``, ``horizon``,
``tau`` (optional) and ``spec`` (optional).  Each agent entry carries
its coupling neighbors, a tagged dynamics union, the input bound, the
declared speed bound M and Lipschitz constants L1 (neighbor block) and
L2 (own state), the initial state and an optional reachable-set radius.
"""

import collections
import json
import math

import numpy as np

from . import reach
from .errors import ExprError, ModelError

_HILL_SERIES_CUTOFF = 1e-8
# the fields' ufunc factors are 0-d arrays, which numpy does not convert on every call
_ZERO = np.array(0.0)


class ConsensusDynamics:
    """f = sum_k weight_k * (x_jk - x_i), the linear consensus field (none: ``zero``)."""

    variant = "linear-consensus"

    def __init__(self, weights):
        self.weights = tuple(float(w) for w in weights)
        self._factors = tuple(map(np.array, self.weights))

    def key(self):
        return self.weights

    def eval(self, x_i, neighbors, out=None):
        x_i = np.asarray(x_i, dtype=float)
        if not self.weights:
            return np.zeros_like(x_i)
        # 0.0 + the first term has the bits of zeros + the first term
        total, last = _ZERO, len(self.weights) - 1
        for k, (w, block) in enumerate(zip(self._factors, neighbors)):
            total = np.add(total, w * (block - x_i), out=out if k == last else None)
        return total


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
        self._pi, self._R = np.array(math.pi), np.array(self.R)
        self._coef_f = self.C * math.pi / self.R
        self._coef = np.array(self._coef_f)
        try:  # a float power past the largest float raises; a product is inf
            self._series = self.C * (math.pi / self.R) ** 2
            if not (np.isfinite(self._coef) and math.isfinite(self._series)):
                raise OverflowError
        except OverflowError:
            raise ModelError("gradient-hill requires a finite C*pi/R and C*(pi/R)**2") from None

    def key(self):
        return (self.C, self.R)

    def eval(self, x_i, neighbors, out=None):
        x = np.asarray(x_i, dtype=float)
        if x.size == x.shape[-1] <= 7:
            # one radial row on Python floats: below 8 terms numpy's reduction sums the
            # squares left to right too, and np.sin keeps the array path's sine
            s = 0.0
            for c in x.ravel().tolist():
                s += c * c
            rho = math.sqrt(s)
            if _HILL_SERIES_CUTOFF <= rho < self.R:
                scale = self._coef_f * float(np.sin(math.pi * rho / self.R)) / rho
                return np.multiply(scale, x, out=out)
        rho = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
        coef = self._coef
        # a batch of radial rows only skips the masks, whose expression this is on such rows.
        # Python's min and max of the few norms a call holds cost less than two reductions;
        # they may skip a NaN norm, whose row is NaN on either path.
        norms = rho.ravel().tolist()
        if norms and min(norms) >= _HILL_SERIES_CUTOFF and max(norms) < self.R:
            return np.multiply(coef * np.sin(self._pi * rho / self._R) / rho, x, out=out)
        # rho = 0 divides by 1 instead; the series branch below replaces that row anyway
        radial = coef * np.sin(math.pi * rho / self.R) / np.where(rho > 0, rho, 1.0)
        scale = np.where(rho < _HILL_SERIES_CUTOFF, self._series, radial)
        scale = np.where(rho >= self.R, 0.0, scale)
        return np.multiply(scale, x, out=out)


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

    def eval(self, x_i, neighbors, out=None):
        f = _rowwise_product(self.A, x_i) + self.b
        for B, block in zip(self.B_blocks, neighbors):
            f = f + _rowwise_product(B, block)
        return f


def _rowwise_product(A, x):
    """A @ x for every row x of the batch, with np.sum's bits."""
    x = np.asarray(x, dtype=float)
    return reach.row_reduce(np.add, x[..., None, :] * A)


# A goal box [lo, hi] and its time window, relative to the previous
# goal's claim or absolute.
Goal = collections.namedtuple("Goal", "lo hi window relative")


class AgentModel:
    def __init__(self, id, dim, neighbors, dynamics, v_max, M, L1, L2, x0,
                 reach_radius=None, goals=()):
        self.id = id
        self.dim = dim
        self.neighbors = neighbors
        self.dynamics = dynamics
        self.v_max = v_max
        self.M = M
        self.L1 = L1
        self.L2 = L2
        self.x0 = x0
        self.reach_radius = reach_radius
        self.goals = goals


class NetworkModel:
    def __init__(self, agents, horizon, tau, raw=None):
        self.agents = agents
        self.horizon = horizon
        self.tau = tau
        self.raw = raw
        self._by_id = {a.id: a for a in agents}

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
    no neighbors.  An expression error names the agent.
    """
    x_i = np.asarray(x_i, dtype=float)
    blocks = split_neighbor_block(agent, x_j)
    try:
        return np.asarray(agent.dynamics.eval(x_i, blocks), dtype=float)
    except ExprError as e:
        raise agents_error([agent.id], e) from None


def _group_keys(agents):
    """Per row, its agent's (variant, parsed parameters, neighbor count)."""
    keys = {a: (a.dynamics.variant, a.dynamics.key(), len(a.neighbors)) for a in set(agents)}
    return [keys[agent] for agent in agents]


def dynamics_groups(agents):
    """Maximal runs of consecutive rows with equal _group_keys, as (first
    agent, slice) pairs; one dynamics.eval serves a run.  Row r is agents[r]."""
    keys = _group_keys(agents)
    starts = [r for r in range(len(keys)) if r == 0 or keys[r] != keys[r - 1]] + [len(keys)]
    return [(agents[a], slice(a, b)) for a, b in zip(starts, starts[1:])]


def group_order(agents):
    """The rows of ``agents`` by dynamics group, groups in the order first met and
    rows in their given order; laid out so, each group is one run of dynamics_groups."""
    keys = _group_keys(agents)
    rank = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    return sorted(range(len(agents)), key=lambda r: rank[keys[r]])


class NetworkField:
    """The raw fields f_i of many rows at once, one dynamics.eval per run.

    ``field(S, out=None)``: row r is ``agents[r]`` at row r of a state S
    shaped (..., rows, n); leading axes are batches.  Its neighbor states
    are either the rows ``neighbor_rows[r]`` of S, taken per neighbor slot
    (the closed loop), or a block of width N_i * n frozen here
    (references): row r of the 2-D ``nbr_refs`` starts with row r's
    block, zero past it.  Rows are split into ``dynamics_groups`` runs
    once, here (in ``group_order``, each group is one run).  A run's eval
    gets its rows of S and of the result (of ``out``, if given) as views
    and may write the field there; any other result is copied in.  Every
    operation is row-wise, so a row has the bits of its one-row field.
    ``M`` is the rows' speed bound: a number when every row shares it,
    else a column.  An expression error names the agents of its run.
    """

    def __init__(self, agents, neighbor_rows=None, nbr_refs=None):
        self.agents = tuple(agents)
        M = np.array([agent.M for agent in self.agents])[:, None]
        self.M = float(M[0, 0]) if M.size and np.all(M == M[0, 0]) else M
        self.frozen = nbr_refs is not None
        self.nbr_refs = nbr_refs
        self.groups = []
        for agent, rows in dynamics_groups(self.agents):
            ids = list(dict.fromkeys(a.id for a in self.agents[rows]))
            if self.frozen:
                block = np.asarray(nbr_refs[rows, : len(agent.neighbors) * agent.dim], float)
                slots = [np.ascontiguousarray(b) for b in split_neighbor_block(agent, block)]
            else:
                slots = [
                    np.array([nbrs[k] for nbrs in neighbor_rows[rows]], dtype=int)
                    for k in range(len(agent.neighbors))
                ]
            self.groups.append((agent.dynamics, rows, slots, ids))

    def __call__(self, S, out=None):
        F = np.empty(S.shape) if out is None else out
        whole, gather = len(self.groups) == 1, not self.frozen
        for dynamics, rows, slots, ids in self.groups:
            blocks = [S.take(idx, axis=-2) for idx in slots] if gather and slots else slots
            x, view = (S, F) if whole else (S[..., rows, :], F[..., rows, :])
            try:
                f = dynamics.eval(x, blocks, view)
            except ExprError as e:
                raise agents_error(ids, e) from None
            if f is not view:
                view[...] = f
        return F

    def rows(self, index):
        """The frozen-neighbor field of the rows at ``index``; each row keeps its bits."""
        return NetworkField([self.agents[r] for r in index], nbr_refs=self.nbr_refs[index])


def agents_error(ids, error):
    """An expression error prefixed with the agents whose dynamics raised it."""
    label = f"agent {ids[0]}" if len(ids) == 1 else "agents " + ", ".join(map(str, ids))
    return ExprError(f"{label}: {error}")


def _norms(v):
    """sqrt(sum v_k**2) of every row, last axis kept, with no warning; a row whose
    sum overflows while its entries are finite is max|v_k| * |v / max|v_k||."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
        top = np.max(np.abs(v), axis=-1, keepdims=True)
        scaled = top * np.sqrt(np.add.reduce((v / top) ** 2, axis=-1, keepdims=True))
    return np.where(np.isinf(norms) & np.isfinite(top), scaled, norms)


def saturate(v, bound):
    """Radial projection onto the closed ball of the given radius (bound >= 0).

    ``bound`` is a number, or an array of bounds broadcasting against the
    rows' norms.  Only a batch with a row over its bound is divided."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # with no row over its bound every factor is 1, and v has the bits of v * 1.0
        if not (np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True)) > bound).any():
            return v
        norms = _norms(v)
        # rows at or under the bound keep the factor 1 and never divide: no zero norm is read
        factor = np.ones_like(norms)
        out = v * np.divide(bound, norms, out=factor, where=norms > bound)
        if np.isinf(norms).any():  # a finite row past the largest float is scaled first
            top = np.max(np.abs(v), axis=-1, keepdims=True)
            out = np.where(np.isinf(norms) & np.isfinite(top), v / top * (bound / _norms(v / top)), out)
        return out


def within_bound(top, n, bound):
    """Where ``saturate`` leaves unchanged every row of length n whose
    entries are at most ``top`` in magnitude (``top`` and ``bound``
    broadcast).

    No computed norm passes the bound if sqrt(n) * top does not, padded
    past a norm's n + 2 roundings.  A zero ``top`` passes; one outside
    [2**-500, 2**500], where a square could under- or overflow, fails, and
    so does a NaN."""
    top = np.asarray(top)
    with np.errstate(over="ignore", invalid="ignore"):
        padded = top * math.sqrt(n) * (1 + (n + 8) * 2.0**-52)
        return (top == 0) | ((2.0**-500 <= top) & (top <= 2.0**500) & (padded <= bound))


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


def _numeric(value):
    """Whether value is a JSON number or a nested array of them; float()
    would also take strings and booleans."""
    if type(value) is list:
        return all(map(_numeric, value))
    return type(value) in (int, float)


def _floats(values, name, length=None):
    _require(_numeric(values), f"{name} must be a numeric array, got {values!r}")
    try:
        arr = np.asarray(values, dtype=float)
    except (ValueError, OverflowError) as e:
        raise ModelError(f"{name} must be a numeric array: {e}") from None
    if length is not None and arr.shape != (length,):
        raise ModelError(f"{name} must have length {length}, got shape {arr.shape}")
    _require(np.all(np.isfinite(arr)), f"{name} must be finite, got {arr.tolist()}")
    return arr


def _scalar(value, name):
    _require(type(value) in (int, float), f"{name} must be a number, got {value!r}")
    return float(_floats(value, name))


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
    variant = entry.get("type")
    if variant == "zero":
        return ConsensusDynamics(())
    if variant == "linear-consensus":
        weights = entry.get("weights", [1.0] * neighbor_count)
        return ConsensusDynamics(_consensus_weights(weights, neighbors, agent_id))
    if variant == "gradient-hill":
        _require(
            "C" in entry and "R" in entry,
            f"agent {agent_id}: gradient-hill needs C and R",
        )
        C = _scalar(entry["C"], f"agent {agent_id}: C")
        R = _scalar(entry["R"], f"agent {agent_id}: R")
        try:
            return HillDynamics(C, R)
        except ModelError as e:
            raise ModelError(f"agent {agent_id}: {e}") from None
    if variant == "affine":
        zeros = [[0.0] * n] * n
        A = _floats(entry.get("A", zeros), f"agent {agent_id} affine A")
        B_blocks = entry.get("B", [zeros] * neighbor_count)
        b = _floats(entry.get("b", [0.0] * n), f"agent {agent_id} affine b")
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
            isinstance(exprs, list) and len(exprs) == n and all(isinstance(t, str) for t in exprs),
            f"agent {agent_id}: expression dynamics needs {n} coordinate expression strings",
        )
        params = entry.get("params", {})
        _require(isinstance(params, dict), f"agent {agent_id}: params must be an object")
        params = {k: _scalar(v, f"agent {agent_id}: param {k}") for k, v in params.items()}
        from . import expr

        try:
            dyn = expr.ExpressionDynamics(exprs, params)
        except ExprError as e:
            raise agents_error([agent_id], e) from None
        for sym, k in sorted(dyn.symbols.items()):
            if sym != "x_i":
                _require(
                    int(sym[3:]) <= neighbor_count,
                    f"agent {agent_id}: expression references {sym} but only "
                    f"{neighbor_count} neighbors are declared",
                )
            _require(
                k <= n,
                f"agent {agent_id}: expression reads {sym}[{k}] but the state "
                f"dimension is {n}",
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
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
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
        _require(type(i) is int and i >= 1, f"agent id must be a positive integer, got {i!r}")
    _require(len(set(ids)) == len(ids), "duplicate agent ids")
    id_set = set(ids)

    dims = [e.get("dim", 0) for e in entries]
    for dim in dims:
        _require(type(dim) is int, f"state dimension must be a finite integer, got {dim!r}")
    _require(len(set(dims)) == 1, "all agents must share one state dimension")
    n = dims[0]
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


class BoundsReport:
    def __init__(self, entries, violations):
        self.entries = entries
        self.violations = violations

    @property
    def ok(self):
        return not self.violations


_SAMPLED_LABELS = {
    "sup_f": "|f|",
    "ratio_M": "|f|/M",
    "worst_L1": "neighbor quotient",
    "worst_L2": "state quotient",
}


# validate_bounds holds about a dozen (samples, n) or (samples, N_i * n) arrays per
# agent; at this many samples a five_agents abstract peaks at about 290 MB
MAX_SAMPLES = 10**6


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
        sup_f = float(np.max(_norms(f)))
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
