"""Small arithmetic expression language for user-defined dynamics.

One expression per state coordinate, written over the vector symbols
``x_i`` (own state) and ``x_j1``, ``x_j2``, ... (neighbor states in the
agent's declared order).  Coordinates are picked with 1-based indexing,
``x_i[1]``.  Supported functions: sin, cos, exp, sqrt, abs (scalar) and
norm (vector).  Operators take Python's precedence, ``^`` read as
``**``: it binds tighter than unary minus and groups to the right, then
come ``* /`` and ``+ -``, grouping to the left.

Each expression compiles once to code that reads no name but the vector
symbols and the helpers of ``_NAMESPACE``; ``pi`` and any user parameters
become float literals.
"""

import ast
import bisect
import keyword
import math
import re

import numpy as np

from .errors import ExprError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|\[|\]))"
)

_VECTOR_RE = re.compile(r"^x_(i|j[1-9][0-9]*)$")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "num":
            tokens.append(("num", float(m.group().strip()), m.start("num")))
        elif kind == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _div(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise ExprError("division by zero")
    return a / b


def _sqrt(value):
    value = np.asarray(value)
    negative = value[value < 0]
    if negative.size:
        raise ExprError(f"sqrt of negative value {float(negative[0])!r}")
    return np.sqrt(value)


def _coord(vec, k, symbol):
    """Coordinate k (0-based) of a vector symbol."""
    if k >= vec.shape[-1]:
        raise ExprError(f"index {k + 1} out of range for {symbol}")
    return vec[..., k]


def _norm(vec):
    return np.sqrt(np.sum(vec ** 2, axis=-1))


# Every name compiled code reads besides the vector symbols.  The compiler
# folds only + - * and unary minus on float literals, to the IEEE result
# evaluation gives; every other operation is a helper call, never folded.
_NAMESPACE = {
    "__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
    "_sqrt": _sqrt, "_norm": _norm, "_coord": _coord, "_div": _div, "_pow": np.power,
}
# a function of the language -> the name its compiled call reads
_CALLEES = {"sin": "sin", "cos": "cos", "exp": "exp", "sqrt": "_sqrt", "abs": "abs", "norm": "_norm"}
_HELPER_OPS = {ast.Div: "_div", ast.Pow: "_pow"}
_MAX_DEPTH = 200  # Python's own limit on nested parentheses


def _call(name, *args):
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def parse_expression(text, params=None):
    """Compile one expression.

    Python's parser reads the tokens as one line of source, ``^`` written
    as ``**`` and each number as a literal of its value.  Its tree is
    refused past 200 levels and translated into a new one of float
    literals, unary minus, ``+ - *``, loads of the vector symbols and calls
    of the helpers in ``_NAMESPACE``, which is compiled.

    Returns (code, symbols): ``symbols`` maps every vector symbol the
    expression reads to the highest 1-based coordinate it reads, or to 0
    when it reads the symbol only through norm().
    """
    params = {"pi": math.pi, **(params or {})}
    symbols = {}
    pieces, spans, col = [], [], 0  # source texts, (column, position in text) pairs
    for kind, value, pos in _tokenize(text):
        if kind == "name" and keyword.iskeyword(value):
            raise ExprError(f"{value!r} is a reserved word", pos)
        if kind == "num":  # a literal past the largest float parses to inf
            value = repr(value) if value < math.inf else "1e999"
        pieces.append("**" if value == "^" else value)
        spans.append((col, pos))
        col += len(pieces[-1]) + 1

    def at(col):
        """The position in ``text`` of the token at column ``col`` of the source."""
        return spans[max(bisect.bisect_right(spans, (col, math.inf)) - 1, 0)][1]

    def unexpected(pos):
        found = _TOKEN_RE.match(text, pos)  # None at the end
        return ExprError(f"unexpected token {found.group().strip() if found else ''!r}", pos)

    def translate(node, depth):
        pos, down = at(node.col_offset), depth + 1
        if depth > _MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {_MAX_DEPTH} levels", pos)
        if isinstance(node, ast.Constant):  # a float: keywords are refused
            return ast.Constant(float(node.value))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ast.UnaryOp(ast.USub(), translate(node.operand, down))
        if isinstance(node, ast.BinOp):  # + - * / ** are all the tokens can spell
            left, right = translate(node.left, down), translate(node.right, down)
            helper = _HELPER_OPS.get(type(node.op))
            return _call(helper, left, right) if helper else ast.BinOp(left, node.op, right)
        if isinstance(node, ast.Name):
            if node.id in _CALLEES:
                raise ExprError(f"function {node.id} requires an argument", pos)
            if _VECTOR_RE.match(node.id):
                raise ExprError(f"vector symbol {node.id} needs [k] indexing or a norm() wrapper", pos)
            if node.id not in params:
                raise ExprError(f"unknown identifier {node.id!r}", pos)
            return ast.Constant(float(params[node.id]))
        name = getattr(getattr(node, "func", getattr(node, "value", None)), "id", "")
        if isinstance(node, ast.Call) and name in _CALLEES:
            if len(node.args) != 1:  # none, or a ** one
                raise ExprError(f"function {name} takes one argument", pos)
            arg = node.args[0]
            if name != "norm":
                return _call(_CALLEES[name], translate(arg, down))
            if not (isinstance(arg, ast.Name) and _VECTOR_RE.match(arg.id)):
                raise ExprError("norm takes a vector symbol argument", at(arg.col_offset))
            symbols.setdefault(arg.id, 0)
            return _call("_norm", ast.Name(arg.id, ast.Load()))
        if isinstance(node, ast.Subscript) and _VECTOR_RE.match(name):
            k, pos = node.slice, at(node.slice.col_offset)
            if not (isinstance(k, ast.Constant) and k.value.is_integer()):
                raise ExprError("coordinate index must be an integer", pos)
            if k.value < 1:
                raise ExprError("coordinate indices are 1-based", pos)
            symbols[name] = max(symbols.get(name, 0), int(k.value))
            vec = ast.Name(name, ast.Load())
            return _call("_coord", vec, ast.Constant(int(k.value) - 1), ast.Constant(name))
        raise unexpected(pos)

    try:
        tree = ast.Expression(translate(ast.parse(" ".join(pieces), mode="eval").body, 1))
        return compile(ast.fix_missing_locations(tree), "<expression>", "eval"), symbols
    except SyntaxError as e:
        # offset 0 is the end; a message on brackets names no Python syntax
        pos = at(e.offset - 1 if e.offset else col)
        raise (ExprError(e.msg, pos) if "'" in e.msg or "paren" in e.msg else unexpected(pos)) from None
    except (RecursionError, MemoryError):  # too deep for Python's parser: its stacks overflow
        raise ExprError(f"expression nested deeper than {_MAX_DEPTH} levels", spans[0][1]) from None


def eval_ast(code, x_i, neighbors):
    """Evaluate a compiled expression at a state.

    Parameters
    ----------
    x_i : array (..., n)
    neighbors : sequence of arrays (..., n), in declared neighbor order.

    Returns a scalar array broadcast over the leading batch shape.
    """
    env = {"x_i": np.asarray(x_i, dtype=float)}
    for k, block in enumerate(neighbors):
        env[f"x_j{k + 1}"] = np.asarray(block, dtype=float)
    return eval(code, _NAMESPACE, env)


class ExpressionDynamics:
    """The ``expression`` dynamics variant: one compiled expression per
    state coordinate.  model._parse_dynamics imports this module only for
    it, so a model with built-in dynamics never compiles the language."""

    variant = "expression"

    def __init__(self, texts, params):
        self.texts = tuple(texts)
        self.params = dict(params)
        self.codes = []
        # vector symbol -> highest coordinate read, as in parse_expression
        self.symbols = {}
        for text in self.texts:
            code, used = parse_expression(text, self.params)
            self.codes.append(code)
            for sym, k in used.items():
                self.symbols[sym] = max(self.symbols.get(sym, 0), k)

    def key(self):
        return (self.texts, tuple(sorted(self.params.items())))

    def eval(self, x_i, neighbors, out=None):
        x_i = np.asarray(x_i, dtype=float)
        # an overflow or an invalid operation yields inf or nan, which the
        # endpoint and audit checks downstream reject with a HorizonError
        if out is None:
            out = np.empty(x_i.shape[:-1] + (len(self.codes),))
        with np.errstate(over="ignore", invalid="ignore"):
            for c, code in enumerate(self.codes):
                out[..., c] = eval_ast(code, x_i, neighbors)
        return out
