import json
import math
import re

import numpy as np
import pytest

import oracles
from horizon_abs import model as model_mod
from horizon_abs.errors import ExprError, ModelError

from conftest import make_model, pair_doc, single_doc


def test_parse_pair_doc():
    model = make_model(pair_doc())
    assert model.agent_ids == (1, 2)
    assert model.dim == 2
    assert model.horizon == 1.0
    assert model.tau == 0.3
    leader, follower = model.agents
    assert leader.neighbors == ()
    assert follower.neighbors == (1,)
    assert follower.reach_radius == 4.0
    assert leader.reach_radius is None
    assert len(leader.goals) == 1
    assert leader.goals[0].relative is False
    assert tuple(model.edges()) == ((1, 2),)


def test_tau_defaults_to_a_fifth_of_the_horizon():
    doc = single_doc()
    del doc["tau"]
    assert make_model(doc).tau == pytest.approx(0.2)


def test_goal_forms_and_relative_default():
    doc = single_doc()
    goal = {"box": [[0.0, 0.0], [1.0, 1.0]], "window": [0.2, 0.5]}
    doc["spec"] = {"1": {"goals": [goal]}}
    assert make_model(doc).agent(1).goals[0].relative is True
    doc["spec"] = {"1": [goal]}  # bare list form
    assert len(make_model(doc).agent(1).goals) == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("horizon"),
        lambda d: d.update(tau=2.0),
        lambda d: d["agents"][0].update(id=0),
        lambda d: d["agents"].append(dict(d["agents"][0])),
        lambda d: d["agents"][0].update(neighbors=[9]),
        lambda d: d["agents"][0].update(neighbors=[1]),
        lambda d: d["agents"][0].update(v_max=0.0),
        lambda d: d["agents"][0].update(M=-1.0),
        lambda d: d["agents"][0].update(x0=[0.0]),
        lambda d: d["agents"][0].update(dynamics={"type": "no-such"}),
        lambda d: d["agents"][0].update(dynamics=None),
        lambda d: d.update(spec={"1": {"goals": [{"box": [[0, 0], [1, 1]], "window": [0.9, 0.2]}]}}),
        lambda d: d.update(spec={"1": {"goals": [{"box": [[1, 1], [0, 0]], "window": [0.2, 0.9]}]}}),
        lambda d: d.update(spec={"1": {"goals": [{"box": [[0, 0], [1, 1]], "window": [0.2, 5.0]}]}}),
        lambda d: d.update(agents=[1]),
        lambda d: d["agents"][0].update(neighbors=5),
        lambda d: d["agents"][0].update(neighbors=[[1]]),
        lambda d: d["agents"][0].update(dynamics={"type": "expression", "exprs": ["x_i[3]", "0"]}),
        # a number is a JSON number: no float() of a string, a bool or a fraction of a dim
        lambda d: d["agents"][0].update(dim=2.5),
        lambda d: d["agents"][0].update(dim=True, x0=[0.0]),
        lambda d: d["agents"][0].update(dim="2"),
        lambda d: d["agents"][0].update(id=True),
        lambda d: d["agents"][0].update(M="25"),
        lambda d: d["agents"][0].update(v_max=True),
        lambda d: d.update(horizon=True),
        lambda d: d.update(tau="0.3"),
        lambda d: d["agents"][0].update(x0=["0", 0.0]),
        lambda d: d["agents"][0].update(x0=[False, 0.0]),
        lambda d: d["agents"][0].update(reach_radius="2"),
        lambda d: d["agents"][0].update(dynamics={"type": "gradient-hill", "C": True, "R": 1.0}),
        lambda d: d["agents"][0].update(dynamics={"type": "affine", "A": [["1", 0], [0, 0]]}),
        lambda d: d["agents"][0].update(
            dynamics={"type": "expression", "exprs": ["c", "0"], "params": {"c": "2"}}
        ),
        lambda d: d.update(spec={"1": {"goals": [{"box": [[0, 0], [1, 1]], "window": [0.2, True]}]}}),
        lambda d: d.update(spec={"1": {"goals": [{"box": [["0", 0], [1, 1]], "window": [0.2, 0.9]}]}}),
    ],
)
def test_parse_rejections(mutate):
    doc = single_doc()
    mutate(doc)
    with pytest.raises(ModelError):
        make_model(doc)


@pytest.mark.parametrize("text, symbol", [("x_i[3]", "x_i[3]"), ("x_j1[1] - x_j1[4]", "x_j1[4]")])
def test_an_expression_coordinate_past_the_dimension_names_agent_and_symbol(text, symbol):
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {"type": "expression", "exprs": [text, "0"]}
    with pytest.raises(ModelError, match=re.escape(
        f"agent 2: expression reads {symbol} but the state dimension is 2"
    )):
        make_model(doc)


def test_cumulative_relative_deadlines_must_fit_the_horizon():
    doc = single_doc()
    goal = {"box": [[0.0, 0.0], [1.0, 1.0]], "window": [0.0, 0.6], "relative": True}
    doc["spec"] = {"1": {"goals": [goal, dict(goal)]}}
    with pytest.raises(ModelError):
        make_model(doc)


def test_rejects_invalid_json():
    with pytest.raises(ModelError):
        model_mod.parse_model("{not json")
    # past the interpreter's digit limit for integer literals
    with pytest.raises(ModelError, match="not valid JSON"):
        model_mod.parse_model('{"horizon": ' + "1" * 5000 + "}")


def test_eval_f_zero_and_consensus():
    model = make_model(pair_doc())
    leader, follower = model.agents
    x = np.array([0.3, -0.7])
    y = np.array([1.0, 1.0])
    assert np.all(model_mod.eval_f(leader, x, np.zeros(0)) == 0.0)
    np.testing.assert_allclose(model_mod.eval_f(follower, y, x), 1.0 * (x - y))


def test_eval_f_purity():
    model = make_model(pair_doc())
    follower = model.agent(2)
    x = np.array([0.31, 2.7])
    d = np.array([-1.2, 0.4])
    a = model_mod.eval_f(follower, x, d)
    b = model_mod.eval_f(follower, x, d)
    assert a.tobytes() == b.tobytes()


def hill_agent(C=2.0, R=2 * math.pi):
    doc = single_doc()
    doc["agents"][0]["dynamics"] = {"type": "gradient-hill", "C": C, "R": R}
    doc["agents"][0].update(M=C * math.pi / R, L2=C * math.pi**2 / R**2, v_max=2.5)
    return make_model(doc).agent(1)


def test_hill_matches_numeric_gradient():
    """The field must equal minus the gradient of C*(1 + cos(pi*|x|/R))."""
    C, R = 2.0, 2 * math.pi
    agent = hill_agent(C, R)

    def h(x):
        rho = np.linalg.norm(x)
        return C * (1 + math.cos(math.pi * rho / R)) if rho < R else 0.0

    rng = np.random.default_rng(0)
    eps = 1e-6
    for _ in range(50):
        x = rng.uniform(-0.9 * R / math.sqrt(2), 0.9 * R / math.sqrt(2), size=2)
        if abs(np.linalg.norm(x) - R) < 10 * eps:
            continue
        grad = np.array(
            [
                (h(x + eps * e) - h(x - eps * e)) / (2 * eps)
                for e in np.eye(2)
            ]
        )
        f = model_mod.eval_f(agent, x, np.zeros(0))
        np.testing.assert_allclose(f, -grad, atol=1e-6)


def test_hill_bound_zero_tail_and_origin():
    C, R = 2.0, 2 * math.pi
    agent = hill_agent(C, R)
    rng = np.random.default_rng(1)
    X = rng.uniform(-2 * R, 2 * R, size=(2000, 2))
    F = model_mod.eval_f(agent, X, np.zeros((2000, 0)))
    norms = np.sqrt(np.sum(F * F, axis=-1))
    assert np.max(norms) <= C * math.pi / R + 1e-12
    outside = np.linalg.norm(X, axis=-1) >= R
    assert np.all(norms[outside] == 0.0)
    assert np.all(model_mod.eval_f(agent, np.zeros(2), np.zeros(0)) == 0.0)
    # series branch continuous across the cutoff
    tiny = np.array([5e-9, 0.0])
    small = np.array([1e-7, 0.0])
    f_tiny = model_mod.eval_f(agent, tiny, np.zeros(0))
    f_small = model_mod.eval_f(agent, small, np.zeros(0))
    assert f_tiny[0] == pytest.approx(C * (math.pi / R) ** 2 * tiny[0], rel=1e-9)
    assert f_small[0] == pytest.approx(C * (math.pi / R) ** 2 * small[0], rel=1e-6)


def hill_rows(R):
    """Points at and around the branch edges of a hill of radius R: rho = 0,
    the series cutoff and R itself, each as [rho, 0], whose computed norm
    is rho exactly."""
    cut = model_mod._HILL_SERIES_CUTOFF
    rhos = [0.0, -0.0, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0),
            np.nextafter(R, 0.0), R, np.nextafter(R, math.inf), 2 * R]
    return np.array([[rho, 0.0] for rho in rhos] + [[0.0, -rho] for rho in rhos])


def hill_batches(R):
    rng = np.random.default_rng(5)
    edges = hill_rows(R)
    inside = rng.uniform(-0.7 * R, 0.7 * R, size=(40, 2))
    yield inside  # radial rows only
    yield inside.reshape(4, 10, 2)
    yield np.array([[np.nextafter(R, 0.0), 0.0], [0.0, -model_mod._HILL_SERIES_CUTOFF]])
    for row in edges:
        yield row
        yield row[None]
        yield np.vstack([inside, row])
    yield edges
    yield np.vstack([inside, edges]).reshape(2, -1, 2)
    yield np.array([[math.nan, 0.0], [1.0, 1.0]])
    yield np.array([[1.0, 1.0], [math.nan, 0.0], [0.0, math.nan]])
    yield np.zeros((0, 2))


@pytest.mark.parametrize("C, R", [(2.0, 2 * math.pi), (0.7, 1.5)])
def test_hill_has_the_bits_of_the_three_masks_on_every_batch(C, R):
    dynamics = hill_agent(C, R).dynamics
    for x in hill_batches(R):
        got = dynamics.eval(x, [])
        want = oracles.hill_eval(dynamics, x, [])
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def hill_cases(R, n, rng):
    """Batches of 1 to 64 rows of dimension n: radial rows only, series
    rows only, rows past R, each mixed with the others, and rows whose
    last entry is an edge value (rho = 0 as +-0.0, the series cutoff and
    its neighbours, R and its neighbours, NaN and +-inf) amid +-0.0."""
    cut = model_mod._HILL_SERIES_CUTOFF
    edges = [0.0, -0.0, np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0),
             np.nextafter(R, 0.0), R, np.nextafter(R, math.inf), math.nan, math.inf, -math.inf]
    edge_rows = np.zeros((2 * len(edges), n))
    edge_rows[len(edges):, :-1] = -0.0
    edge_rows[:, -1] = edges + [-v for v in edges]

    def at_norms(lo, hi, rows):
        v = rng.normal(size=(rows, n))
        return v / np.linalg.norm(v, axis=-1, keepdims=True) * rng.uniform(lo, hi, (rows, 1))

    for rows in (1, 2, 7, 8, 9, 33, 64):
        radial, series = at_norms(10 * cut, 0.9 * R, rows), at_norms(0.0, 0.9 * cut, rows)
        outside = at_norms(R, 3 * R, rows)
        yield from (radial, series, outside)
        yield rng.permutation(np.vstack([radial, series, outside]))[:rows]
        yield np.vstack([radial, edge_rows])[-rows:]
    yield edge_rows
    yield from edge_rows[:, None]


@pytest.mark.parametrize("C, R", [(2.0, 2 * math.pi), (0.7, 1.5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hill_has_the_oracle_bits_in_every_dimension(C, R, n):
    """In every branch and at every edge norm the field matches
    oracles.hill_eval bit for bit, NaN and signed zeros included."""
    dynamics = model_mod.HillDynamics(C, R)
    for x in hill_cases(R, n, np.random.default_rng(n)):
        with np.errstate(invalid="ignore"):
            got, want = dynamics.eval(x, []), oracles.hill_eval(dynamics, x, [])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), x


def test_hill_lipschitz_quotients_below_declared():
    C, R = 2.0, 2 * math.pi  # C*pi^2/R^2 = 0.5, declared L2 = 3 leaves slack
    agent = hill_agent(C, R)
    rng = np.random.default_rng(2)
    X = rng.uniform(-R, R, size=(3000, 2))
    Y = rng.uniform(-R, R, size=(3000, 2))
    FX = model_mod.eval_f(agent, X, np.zeros((3000, 0)))
    FY = model_mod.eval_f(agent, Y, np.zeros((3000, 0)))
    dx = np.linalg.norm(X - Y, axis=-1)
    df = np.linalg.norm(FX - FY, axis=-1)
    keep = dx > 1e-9
    assert np.max(df[keep] / dx[keep]) <= 3.0


def test_affine_dynamics():
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {
        "type": "affine",
        "A": [[0.0, 1.0], [-1.0, 0.0]],
        "B": [[[0.5, 0.0], [0.0, 0.5]]],
        "b": [0.1, -0.2],
    }
    agent = make_model(doc).agent(2)
    x = np.array([1.0, 2.0])
    y = np.array([4.0, 6.0])
    np.testing.assert_allclose(
        model_mod.eval_f(agent, x, y),
        np.array([2.0 + 2.0 + 0.1, -1.0 + 3.0 - 0.2]),
    )


def test_affine_rows_do_not_depend_on_the_batch():
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {
        "type": "affine",
        "A": [[0.3, 1.7], [-1.1, 0.45]],
        "B": [[[0.5, -0.25], [0.125, 0.5]]],
        "b": [0.1, -0.2],
    }
    agent = make_model(doc).agent(2)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((500, 2)) * 1e3
    D = rng.standard_normal((500, 2)) * 1e-3
    batched = model_mod.eval_f(agent, X, D)
    rows = np.array([model_mod.eval_f(agent, x, d) for x, d in zip(X, D)])
    assert np.array_equal(batched, rows)


def test_expression_dynamics_equals_consensus():
    doc = pair_doc()
    doc["agents"][1]["dynamics"] = {
        "type": "expression",
        "exprs": ["w * (x_j1[1] - x_i[1])", "w * (x_j1[2] - x_i[2])"],
        "params": {"w": 1.0},
    }
    direct = make_model(pair_doc()).agent(2)
    viaexpr = make_model(doc).agent(2)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 2))
    Y = rng.normal(size=(100, 2))
    np.testing.assert_allclose(
        model_mod.eval_f(viaexpr, X, Y), model_mod.eval_f(direct, X, Y), atol=1e-14
    )


def test_network_field_names_the_group_of_a_failing_expression():
    doc = single_doc()
    second = dict(doc["agents"][0], id=2, x0=[1.0, 1.0])
    third = dict(doc["agents"][0], id=3, x0=[2.0, 2.0])
    doc["agents"] += [second, third]
    for agent in doc["agents"][:2]:
        agent["dynamics"] = {"type": "expression", "exprs": ["sqrt(x_i[1])", "0"]}
    model = make_model(doc)
    field = model_mod.NetworkField(model.agents, [[], [], []])
    S = np.array([[4.0, 0.0], [-1.0, 0.0], [-2.0, 0.0]])
    with pytest.raises(ExprError, match=r"^agents 1, 2: sqrt of negative value -1\.0$"):
        field(S)


def test_split_neighbor_block():
    doc = pair_doc()
    doc["agents"].append(
        {
            "id": 3,
            "dim": 2,
            "neighbors": [1, 2],
            "dynamics": {"type": "linear-consensus", "weights": {"1": 0.5, "2": 0.5}},
            "v_max": 4.0,
            "M": 8.0,
            "L1": 1.0,
            "L2": 1.0,
            "x0": [0.0, 2.0],
            "reach_radius": 9.0,
        }
    )
    agent = make_model(doc).agent(3)
    block = np.array([1.0, 2.0, 3.0, 4.0])
    parts = model_mod.split_neighbor_block(agent, block)
    assert len(parts) == 2
    np.testing.assert_array_equal(parts[0], [1.0, 2.0])
    np.testing.assert_array_equal(parts[1], [3.0, 4.0])


def test_default_reach_radius_and_family():
    model = make_model(pair_doc())
    leader = model.agent(1)
    assert model_mod.default_reach_radius(leader, model.horizon, model.tau) == pytest.approx(
        (0.5 + 1.0) * (1.0 - 0.3)
    )
    fam1 = model_mod.reach_family(model, 1)
    np.testing.assert_array_equal(fam1.base.center, leader.x0)
    assert fam1.base.radius == pytest.approx(1.05)
    assert fam1.c_rate == pytest.approx(1.5)
    fam2 = model_mod.reach_family(model, 2)
    assert fam2.base.radius == 4.0  # explicit override wins


def test_validate_bounds_report():
    # honest declarations: a lone hill agent with exact analytic constants
    doc = single_doc()
    C, R = 2.0, 2 * math.pi
    doc["agents"][0]["dynamics"] = {"type": "gradient-hill", "C": C, "R": R}
    doc["agents"][0].update(M=C * math.pi / R, L1=0.0, L2=C * math.pi**2 / R**2, v_max=2.5)
    report = model_mod.validate_bounds(make_model(doc), samples=2000, seed=0)
    assert report.ok
    assert report.entries[1]["ratio_M"] <= 1.0

    # an understated M must be flagged, not raised
    doc["agents"][0]["M"] = 0.1
    report = model_mod.validate_bounds(make_model(doc), samples=2000, seed=0)
    assert not report.ok
    assert any("exceeds M" in v for v in report.violations)


def test_validate_bounds_reports_non_finite_values_as_none():
    """M = 0 under a nonzero field gives an infinite |f|/M; a field that
    is NaN somewhere gives a NaN |f| and NaN quotients."""
    doc = single_doc()
    doc["agents"][0]["dynamics"] = {"type": "gradient-hill", "C": 2.0, "R": 2 * math.pi}
    doc["agents"][0].update(M=0.0, L1=0.0, L2=10.0)
    report = model_mod.validate_bounds(make_model(doc), samples=200, seed=0)
    assert report.entries[1]["ratio_M"] is None and report.entries[1]["sup_f"] > 0
    assert report.violations[0] == "agent 1: sampled |f|/M is not finite"
    assert any("exceeds M = 0.0" in v for v in report.violations)

    inf_minus_inf = "exp(1000*x_i[1]) - exp(1000*x_i[1])"
    doc["agents"][0]["dynamics"] = {"type": "expression", "exprs": [inf_minus_inf, "0"]}
    doc["agents"][0].update(M=1.0)
    report = model_mod.validate_bounds(make_model(doc), samples=200, seed=0)
    entry = report.entries[1]
    assert entry["sup_f"] is None and entry["ratio_M"] is None and entry["worst_L2"] is None
    assert report.violations[0] == "agent 1: sampled |f| is not finite"
    assert not any("exceeds" in v for v in report.violations)
    json.dumps(report.entries, allow_nan=False)


def fan_in_doc(weights):
    """The pair plus a third agent listening to agents 2 and 1, in that order."""
    doc = pair_doc()
    doc["agents"].append(
        {
            "id": 3,
            "dim": 2,
            "neighbors": [2, 1],
            "dynamics": {"type": "linear-consensus", "weights": weights},
            "v_max": 4.0,
            "M": 8.0,
            "L1": 1.0,
            "L2": 1.0,
            "x0": [0.0, 2.0],
            "reach_radius": 9.0,
        }
    )
    return doc


@pytest.mark.parametrize("weights", [{"1": 0.25, "2": 0.5}, [0.5, 0.25]])
def test_consensus_weights_follow_neighbor_order(weights):
    agent = make_model(fan_in_doc(weights)).agent(3)
    assert agent.dynamics.weights == (0.5, 0.25)
    x = np.array([1.0, -1.0])
    x2, x1 = np.array([3.0, 1.0]), np.array([-1.0, 5.0])
    np.testing.assert_allclose(
        model_mod.eval_f(agent, x, np.concatenate([x2, x1])),
        0.5 * (x2 - x) + 0.25 * (x1 - x),
    )


@pytest.mark.parametrize(
    "weights",
    [
        "5",
        "55",
        0.5,
        {"1": 0.5},
        {"1": 0.5, "2": 0.5, "3": 0.5},
        {"1": "heavy", "2": 0.5},
        {"1": None, "2": 0.5},
        {"1": "0.5", "2": 0.5},
        [True, 0.25],
        [0.5],
        [[0.5], [0.25]],
    ],
)
def test_consensus_weights_rejections(weights):
    with pytest.raises(ModelError):
        make_model(fan_in_doc(weights))


NON_FINITE_FIELDS = {
    "horizon": lambda d, v: d.update(horizon=v),
    "dim": lambda d, v: [a.update(dim=v) for a in d["agents"]],
    "tau": lambda d, v: d.update(tau=v),
    "v_max": lambda d, v: d["agents"][1].update(v_max=v),
    "M": lambda d, v: d["agents"][1].update(M=v),
    "L1": lambda d, v: d["agents"][1].update(L1=v),
    "L2": lambda d, v: d["agents"][1].update(L2=v),
    "x0": lambda d, v: d["agents"][1].update(x0=[v, 0.0]),
    "reach_radius": lambda d, v: d["agents"][1].update(reach_radius=v),
    "goal_box": lambda d, v: d["spec"]["2"]["goals"][0]["box"][1].__setitem__(0, v),
    "goal_window": lambda d, v: d["spec"]["2"]["goals"][0]["window"].__setitem__(0, v),
    "weights_object": lambda d, v: d["agents"][1]["dynamics"].update(weights={"1": v}),
    "weights_list": lambda d, v: d["agents"][1]["dynamics"].update(weights=[v]),
    "hill_C": lambda d, v: d["agents"][0].update(dynamics={"type": "gradient-hill", "C": v, "R": 1.0}),
    "affine_A": lambda d, v: d["agents"][0].update(dynamics={"type": "affine", "A": [[v, 0], [0, 0]]}),
    "expression_param": lambda d, v: d["agents"][0].update(
        dynamics={"type": "expression", "exprs": ["c", "0"], "params": {"c": v}}
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_numbers_rejected_at_parse_time(field, value):
    doc = pair_doc()
    NON_FINITE_FIELDS[field](doc, value)
    text = json.dumps(doc)  # writes NaN / Infinity, which json.loads accepts
    with pytest.raises(ModelError, match="finite"):
        model_mod.parse_model(text)


def test_raw_document_round_trip():
    doc = pair_doc()
    model = make_model(doc)
    assert json.loads(json.dumps(model.raw)) == doc
