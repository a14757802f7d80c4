"""Small arithmetic expression language for user-defined dynamics.

One expression per state coordinate, written over the vector symbols
``x_i`` (own state) and ``x_j1``, ``x_j2``, ... (neighbor states in the
agent's declared order).  Coordinates are picked with 1-based indexing,
``x_i[1]``.  Supported functions: sin, cos, exp, sqrt, abs (scalar) and
norm (vector).  Operators take Python's precedence, ``^`` read as
``**``: it binds tighter than unary minus and groups to the right, then
come ``* /`` and ``+ -``, grouping to the left.

Constants (``pi`` and any user parameters) are substituted at parse
time, so evaluation touches no symbol table.
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

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

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


class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value


class Coord:
    """One coordinate of a vector symbol, 1-based index frozen to 0-based."""

    __slots__ = ("symbol", "k")

    def __init__(self, symbol, k):
        self.symbol = symbol
        self.k = k

    def eval(self, env):
        vec = env[self.symbol]
        if self.k >= vec.shape[-1]:
            raise ExprError(f"index {self.k + 1} out of range for {self.symbol}")
        return vec[..., self.k]


class Norm:
    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = symbol

    def eval(self, env):
        return np.sqrt(np.sum(env[self.symbol] ** 2, axis=-1))


class Call:
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg

    def eval(self, env):
        value = self.arg.eval(env)
        if self.name == "sqrt":
            value = np.asarray(value)
            negative = value[value < 0]
            if negative.size:
                raise ExprError(f"sqrt of negative value {float(negative[0])!r}")
        return _FUNCTIONS[self.name](value)


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def eval(self, env):
        return -self.arg.eval(env)


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise ExprError("division by zero")
            return a / b
        return np.power(a, b)


_MAX_DEPTH = 200  # Python's own limit on nested parentheses
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse_expression(text, params=None):
    """Parse one expression into an AST.

    Python's parser reads the tokens as one line of source, ``^`` written
    as ``**`` and each number as a literal of its value; its tree is
    translated, never evaluated, and refused past 200 levels.

    Returns (ast, symbols): ``symbols`` maps every vector symbol the
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
            return Num(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(translate(node.operand, down))
        if isinstance(node, ast.BinOp):  # + - * / ** are all the tokens can spell
            return Bin(_BINARY[type(node.op)], translate(node.left, down), translate(node.right, down))
        if isinstance(node, ast.Name):
            if node.id in _FUNCTIONS or node.id == "norm":
                raise ExprError(f"function {node.id} requires an argument", pos)
            if _VECTOR_RE.match(node.id):
                raise ExprError(f"vector symbol {node.id} needs [k] indexing or a norm() wrapper", pos)
            if node.id not in params:
                raise ExprError(f"unknown identifier {node.id!r}", pos)
            return Num(params[node.id])
        name = getattr(getattr(node, "func", getattr(node, "value", None)), "id", "")
        if isinstance(node, ast.Call) and (name in _FUNCTIONS or name == "norm"):
            if len(node.args) != 1:  # none, or a ** one
                raise ExprError(f"function {name} takes one argument", pos)
            arg = node.args[0]
            if name != "norm":
                return Call(name, translate(arg, down))
            if not (isinstance(arg, ast.Name) and _VECTOR_RE.match(arg.id)):
                raise ExprError("norm takes a vector symbol argument", at(arg.col_offset))
            symbols.setdefault(arg.id, 0)
            return Norm(arg.id)
        if isinstance(node, ast.Subscript) and _VECTOR_RE.match(name):
            k, pos = node.slice, at(node.slice.col_offset)
            if not (isinstance(k, ast.Constant) and k.value.is_integer()):
                raise ExprError("coordinate index must be an integer", pos)
            if k.value < 1:
                raise ExprError("coordinate indices are 1-based", pos)
            symbols[name] = max(symbols.get(name, 0), int(k.value))
            return Coord(name, int(k.value) - 1)
        raise unexpected(pos)

    try:
        return translate(ast.parse(" ".join(pieces), mode="eval").body, 1), symbols
    except SyntaxError as e:
        # offset 0 is the end; a message on brackets names no Python syntax
        pos = at(e.offset - 1 if e.offset else col)
        raise (ExprError(e.msg, pos) if "'" in e.msg or "paren" in e.msg else unexpected(pos)) from None
    except (RecursionError, MemoryError):  # too deep for Python's parser: its stacks overflow
        raise ExprError(f"expression nested deeper than {_MAX_DEPTH} levels", spans[0][1]) from None


def eval_ast(ast, x_i, neighbors):
    """Evaluate an AST at a state.

    Parameters
    ----------
    x_i : array (..., n)
    neighbors : sequence of arrays (..., n), in declared neighbor order.

    Returns a scalar array broadcast over the leading batch shape.
    """
    env = {"x_i": np.asarray(x_i, dtype=float)}
    for k, block in enumerate(neighbors):
        env[f"x_j{k + 1}"] = np.asarray(block, dtype=float)
    return ast.eval(env)


class ExpressionDynamics:
    """The ``expression`` dynamics variant: one parsed expression per
    state coordinate.  model._parse_dynamics imports this module only for
    it, so a model with built-in dynamics never compiles the language."""

    variant = "expression"

    def __init__(self, texts, params):
        self.texts = tuple(texts)
        self.params = dict(params)
        self.asts = []
        # vector symbol -> highest coordinate read, as in parse_expression
        self.symbols = {}
        for text in self.texts:
            ast, used = parse_expression(text, self.params)
            self.asts.append(ast)
            for sym, k in used.items():
                self.symbols[sym] = max(self.symbols.get(sym, 0), k)

    def key(self):
        return (self.texts, tuple(sorted(self.params.items())))

    def eval(self, x_i, neighbors, out=None):
        x_i = np.asarray(x_i, dtype=float)
        # an overflow or an invalid operation yields inf or nan, which the
        # endpoint and audit checks downstream reject with a HorizonError
        if out is None:
            out = np.empty(x_i.shape[:-1] + (len(self.asts),))
        with np.errstate(over="ignore", invalid="ignore"):
            for c, ast in enumerate(self.asts):
                out[..., c] = eval_ast(ast, x_i, neighbors)
        return out
