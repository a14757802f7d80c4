import math

import numpy as np
import pytest

import oracles
from horizon_abs import expr
from horizon_abs.errors import ExprError


def ev(text, x_i=(0.0, 0.0), neighbors=(), params=None):
    ast, _ = expr.parse_expression(text, params=params)
    return expr.eval_ast(ast, np.asarray(x_i, float), [np.asarray(v, float) for v in neighbors])


def test_precedence_and_associativity():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("2 ^ 3 ^ 2") == 512.0  # right associative
    assert ev("-2 ^ 2") == -4.0  # ^ binds tighter than unary minus
    assert ev("2 ^ -1") == 0.5
    assert ev("6 / 3 / 2") == 1.0
    assert ev("(1 + 2) * 3") == 9.0


def test_vector_symbols_and_indices():
    x = np.array([3.0, -4.0])
    y = np.array([1.0, 2.0])
    assert ev("x_i[1]", x) == 3.0
    assert ev("x_i[2]", x) == -4.0
    assert ev("x_j1[2] - x_i[1]", x, [y]) == -1.0
    assert ev("norm(x_i)", x) == pytest.approx(5.0)


def test_functions_and_constants():
    assert ev("sin(pi / 2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("sqrt(2) ^ 2") == pytest.approx(2.0)
    assert ev("abs(-3)") == 3.0
    assert ev("mu * 2", params={"mu": 0.5}) == 1.0


def test_symbols_reported():
    _, syms = expr.parse_expression("x_i[1] + x_j2[1] * x_j1[2]")
    assert syms == {"x_i": 1, "x_j1": 2, "x_j2": 1}
    # the highest coordinate read counts; norm() alone reads none
    _, syms = expr.parse_expression("x_i[3] - x_i[1] + norm(x_j1) + norm(x_i)")
    assert syms == {"x_i": 3, "x_j1": 0}
    _, syms = expr.parse_expression("1 + 2")
    assert syms == {}


def test_scientific_notation_and_whitespace():
    assert ev("1e3") == 1000.0
    assert ev("2.5e-2") == 0.025
    assert ev("  x_i[1]  ", (7.0, 0.0)) == 7.0


def test_roundtrip_precision():
    rng = np.random.default_rng(3)
    texts = [
        "2*x_i[1] + sin(x_j1[2]) - 0.5",
        "norm(x_j1) / (1 + x_i[2]^2)",
        "-x_i[1] * exp(-norm(x_i)) + pi",
    ]
    for text in texts:
        ast, _ = expr.parse_expression(text)
        back, _ = expr.parse_expression(oracles.expr_to_string(ast))
        for _ in range(100):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            a = expr.eval_ast(ast, x, [y])
            b = expr.eval_ast(back, x, [y])
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_batched_evaluation_matches_loop():
    ast, _ = expr.parse_expression("x_i[1] * x_j1[2] + norm(x_i)")
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 2))
    batched = expr.eval_ast(ast, X, [Y])
    for k in range(40):
        assert batched[k] == pytest.approx(expr.eval_ast(ast, X[k], [Y[k]]), abs=1e-14)


def test_errors():
    with pytest.raises(ExprError):
        expr.parse_expression("x_i[1] +")
    with pytest.raises(ExprError):
        expr.parse_expression("2 $ 3")
    with pytest.raises(ExprError):
        expr.parse_expression("x_i[0]")  # indices are 1-based
    with pytest.raises(ExprError):
        expr.parse_expression("unknown_name")
    with pytest.raises(ExprError):
        expr.parse_expression("sin()")
    with pytest.raises(ExprError):
        ev("1 / x_i[1]", (0.0, 1.0))
    with pytest.raises(ExprError):
        ev("sqrt(x_i[1])", (-1.0, 0.0))
    with pytest.raises(ExprError):
        ev("x_i[3]", (0.0, 0.0))
