import ast
import math
import pathlib
import random
import re

import numpy as np
import pytest

import oracles
from horizon_abs import expr
from horizon_abs.errors import ExprError


def ev(text, x_i=(0.0, 0.0), neighbors=(), params=None):
    code, _ = expr.parse_expression(text, params=params)
    return expr.eval_ast(code, np.asarray(x_i, float), [np.asarray(v, float) for v in neighbors])


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
    """The printed oracle tree of a text compiles to the text's code."""
    texts = [
        "2*x_i[1] + sin(x_j1[2]) - 0.5",
        "norm(x_j1) / (1 + x_i[2]^2)",
        "-x_i[1] * exp(-norm(x_i)) + pi",
    ]
    for text in texts:
        back = oracles.expr_to_string(oracles.parse_expression(text)[0])
        assert expr.parse_expression(back) == expr.parse_expression(text)


def test_batched_evaluation_matches_loop():
    code, _ = expr.parse_expression("x_i[1] * x_j1[2] + norm(x_i)")
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 2))
    batched = expr.eval_ast(code, X, [Y])
    for k in range(40):
        assert batched[k] == pytest.approx(expr.eval_ast(code, X[k], [Y[k]]), abs=1e-14)


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
    with pytest.raises(ExprError, match=r"^division by zero$"):
        ev("1 / x_i[1]", (0.0, 1.0))
    with pytest.raises(ExprError, match=r"^sqrt of negative value -1\.0$"):
        ev("sqrt(x_i[1])", (-1.0, 0.0))
    with pytest.raises(ExprError, match=r"^index 3 out of range for x_i$"):
        ev("x_i[3]", (0.0, 0.0))


def test_only_expr_compiles_and_its_code_reads_only_helpers_and_symbols():
    """No other module of the package calls eval, exec or compile, and
    what expr compiles reads no name but its helpers and vector symbols."""
    package = pathlib.Path(expr.__file__).parent
    callers = sorted(
        (path.name, node.func.id)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("eval", "exec", "compile")
    )
    assert callers == [("expr.py", "compile"), ("expr.py", "eval")]
    text = "sin(x_i[1]) / cos(x_j2[2]) ^ exp(-abs(x_j10[1])) - sqrt(norm(x_j1)) * pi"
    code, symbols = expr.parse_expression(text)
    assert set(code.co_names) == set(expr._NAMESPACE) - {"__builtins__"} | set(symbols)
    assert expr._NAMESPACE["__builtins__"] == {}


# The parser reads the language of the hand-written recursive descent it
# replaced, oracles.parse_expression, on printed random trees and garbled
# copies of them.  The three documented differences are checked by hand
# below.
PARAMS = {"mu": 0.5, "k2": -2.0, "a_b": 1e300, "pi": 3.0}
LEAVES = ["mu", "k2", "a_b", "pi"]
NUMBERS = ["0", "3", "007", "2.5", ".5", "3.", "1e3", "2.5E-2", "1e400", "4e-320", "12345678901234567890"]
INDICES = ["1", "2", "3", "2.0", "1e0", "30"]
SYMBOLS = ["x_i", "x_j1", "x_j2", "x_j10"]
FUNCTIONS = ["sin", "cos", "exp", "sqrt", "abs"]
GARBLE = list("x_ij12[]()+-*/^.e ") + ["sin", "norm", "if", "lambda", "True", "$", "1e", "**", ",", "mu"]
SPACES = ["", "", " ", "  ", "\t"]
# for each binary operator: its precedence, and the least precedence of a
# left and of a right operand printed without parentheses.  Unary minus is
# 3 and an atom 5; ^ takes an atom on its left and a unary on its right.
BINARY = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}


def random_tokens(rng, depth):
    """The tokens of a random well-formed expression, and its precedence."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            [rng.choice(NUMBERS)],
            [rng.choice(LEAVES)],
            [rng.choice(SYMBOLS), "[", rng.choice(INDICES), "]"],
            ["norm", "(", rng.choice(SYMBOLS), ")"],
        ]), 5
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.choice(FUNCTIONS), "("] + random_tokens(rng, depth - 1)[0] + [")"], 5
    if kind == 1:
        return ["-"] + operand(rng, depth - 1, 3), 3
    op = rng.choice(list(BINARY))
    level, left, right = BINARY[op]
    return operand(rng, depth - 1, left) + [op] + operand(rng, depth - 1, right), level


def operand(rng, depth, least):
    """A random operand in parentheses when its precedence is below
    ``least``, and now and then when not (never around one token)."""
    tokens, level = random_tokens(rng, depth)
    if level < least or (len(tokens) > 1 and rng.random() < 0.1):
        return ["("] + tokens + [")"]
    return tokens


def random_text(rng):
    tokens, _ = random_tokens(rng, rng.randrange(1, 6))
    return "".join(rng.choice(SPACES) + t for t in tokens) + rng.choice(SPACES)


def garble(text, rng):
    """One to three edits: delete, insert, swap, repeat a stretch or cut the rest."""
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(text) + 1)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:k] + text[k + 1:]
        elif edit == 1:
            text = text[:k] + rng.choice(GARBLE) + text[k:]
        elif edit == 2:
            text = text[:k] + text[k + 1:k + 2] + text[k:k + 1] + text[k + 2:]
        elif edit == 3:
            text = text[:k] + text[k // 2:k] + text[k:]
        else:
            text = text[:k]
    return text


# Seeded states of dimension 3 for x_i and x_j1 to x_j10, one row and a
# batch of four: indices past 3 are out of range.
STATE_RNG = np.random.default_rng(28)
STATES = [
    [STATE_RNG.normal(scale=2.0, size=shape) for _ in range(11)]
    for shape in ((3,), (4, 3))
]
IN_STATES = {"x_i"} | {f"x_j{k}" for k in range(1, 11)}


def outcome(evaluate, tree):
    """What evaluating a tree gives at each state: the type, shape and
    bytes of the value, or the text of the ExprError."""
    out = []
    for x_i, *neighbors in STATES:
        try:
            with np.errstate(all="ignore"):
                value = evaluate(tree, x_i, neighbors)
        except ExprError as e:
            out.append(str(e))
        else:
            out.append((type(value), np.shape(value), np.asarray(value).tobytes()))
    return out


def same_function(got, want):
    """A compiled expression and an oracle tree that compute the same:
    equal symbols and, where the states hold them all, evaluations with
    equal bytes or equal errors."""
    if got[1] != want[1]:
        return False
    if not got[1].keys() <= IN_STATES:
        return True
    return outcome(expr.eval_ast, got[0]) == outcome(oracles.eval_tree, want[0])


def test_the_language_is_the_old_parsers():
    """Where the old parser returns, the new one compiles code that
    reads the same symbols and evaluates to the bytes, or raises the
    error, of the old interpreter; where the old parser raises anything,
    the new one raises an ExprError with a position."""
    rng = random.Random(25)
    parsed = evaluated = 0
    helpers = expr._NAMESPACE.keys() - {"__builtins__"}
    for k in range(20_000):
        text = random_text(rng)
        if k % 2:
            text = garble(text, rng)
        try:
            want = oracles.parse_expression(text, PARAMS)
        except Exception:
            with pytest.raises(ExprError) as refused:
                expr.parse_expression(text, PARAMS)
            assert refused.value.position is not None, text
            continue
        got = expr.parse_expression(text, PARAMS)
        assert same_function(got, want) and set(got[0].co_names) <= helpers | got[1].keys(), text
        parsed += 1
        evaluated += got[1].keys() <= IN_STATES
    assert parsed >= 10_000 and 20_000 - parsed >= 5_000 and evaluated >= 0.99 * parsed


@pytest.mark.parametrize("text, plain", [
    ("(x_i)[1]", "x_i[1]"),
    ("((x_j1))[2] - 1", "x_j1[2] - 1"),
    ("x_i[(2)]", "x_i[2]"),
    ("(sin)(x_i[1])", "sin(x_i[1])"),
    ("(norm)(x_i)", "norm(x_i)"),
    ("norm((x_j1)) * 2", "norm(x_j1) * 2"),
])
def test_redundant_parentheses_around_a_name_or_an_index_are_accepted(text, plain):
    """The first difference: parentheses the old parser refused around a
    vector symbol, its index, a function name or norm's argument."""
    with pytest.raises(ExprError):
        oracles.parse_expression(text)
    assert expr.parse_expression(text) == expr.parse_expression(plain)
    assert same_function(expr.parse_expression(text), oracles.parse_expression(plain))


@pytest.mark.parametrize("name", ["if", "lambda", "True", "None", "not", "and", "in"])
def test_a_parameter_named_like_a_python_keyword_cannot_be_read(name):
    """The second difference: the old parser read any parameter name."""
    text, params = f"x_i[1] * {name}", {name: 2.0}
    assert isinstance(oracles.parse_expression(text, params)[0], oracles.Bin)
    with pytest.raises(ExprError, match=re.escape(f"{name!r} is a reserved word (at position 9)")):
        expr.parse_expression(text, params)


def test_a_tree_deeper_than_200_levels_is_refused():
    """The third difference: the old parser read any depth its recursion
    reached.  At 200 levels both compute the same."""
    for text in ("-" * 199 + "x_i[1]", " + ".join(["x_i[1]"] * 200)):
        assert same_function(expr.parse_expression(text), oracles.parse_expression(text))
    value = 1.0
    for _ in range(199):
        value = np.sin(value)
    assert ev("sin(" * 199 + "1" + ")" * 199) == value
    for text, position in (("-" * 200 + "x_i[1]", 200), ("sin(" * 200 + "1" + ")" * 200, 800),
                           (" + ".join(["x_i[1]"] * 201), 0)):
        with pytest.raises(ExprError, match=re.escape(f"200 levels (at position {position})")):
            expr.parse_expression(text)
    # parentheses alone make no level; Python reads at most 200 of them nested
    assert ev("(" * 200 + "2" + ")" * 200) == 2.0
    with pytest.raises(ExprError, match=re.escape("parentheses (at position 200)")):
        expr.parse_expression("(" * 201 + "2" + ")" * 201)


@pytest.mark.parametrize("text, message", [
    ("-" * 3000 + "x_i[1]", "expression nested deeper than 200 levels (at position 0)"),
    ("(" * 300 + "x_i[1]" + ")" * 300, "too many nested parentheses (at position 200)"),
    (" + ".join(["x_i[1]"] * 5000), "expression nested deeper than 200 levels (at position 0)"),
    ("x_i[1e400]", "coordinate index must be an integer (at position 4)"),
    # Python's parser overflows its own stack on these
    ("2 ^ " * 3000 + "2", "expression nested deeper than 200 levels (at position 0)"),
    ("-" * 10000 + "1", "expression nested deeper than 200 levels (at position 0)"),
])
def test_texts_that_crashed_the_old_parser_are_expression_errors(text, message):
    """The old parser raised OverflowError on the index and RecursionError
    on the others but the long sum, which it read and whose evaluation
    then ran out of recursion."""
    with pytest.raises(ExprError, match=re.escape(message)):
        expr.parse_expression(text)


@pytest.mark.parametrize("text, message", [
    ("x_i[1] +", "unexpected token '' (at position 8)"),
    ("(x_i[1] + 2", "'(' was never closed (at position 0)"),
    ("x_i[1]]", "unmatched ']' (at position 6)"),
    ("x_i[1 + 2)", "closing parenthesis ')' does not match opening parenthesis '['"),
    ("2 ^ ^ 3", "unexpected token '^' (at position 4)"),
    ("(^ 3)", "unexpected token '^' (at position 1)"),
    ("sin(^ x_i[1])", "function sin takes one argument (at position 0)"),
    ("x_i[1] x_i[2]", "unexpected token 'x_i' (at position 7)"),
    ("+x_i[1]", "unexpected token '+' (at position 0)"),
    ("sin(*x_i)", "unexpected token '*' (at position 4)"),
    ("x_i[1][2]", "unexpected token 'x_i' (at position 0)"),
    ("mu(2)", "unexpected token 'mu' (at position 0)"),
    ("()", "unexpected token '(' (at position 0)"),
    ("1 *  2e3(1)", "unexpected token '2e3' (at position 5)"),
])
def test_a_parse_error_names_the_token_at_its_position(text, message):
    with pytest.raises(ExprError, match=re.escape(message)):
        expr.parse_expression(text, {"mu": 1.0})
