"""Small arithmetic expression language for user-defined dynamics.

One expression per state coordinate, written over the vector symbols
``x_i`` (own state) and ``x_j1``, ``x_j2``, ... (neighbor states in the
agent's declared order).  Coordinates are picked with 1-based indexing,
``x_i[1]``.  Supported functions: sin, cos, exp, sqrt, abs (scalar) and
norm (vector).  Operator precedence, high to low::

    ^  (right associative)
    unary -
    * /
    + -

Constants (``pi`` and any user parameters) are substituted at parse
time, so evaluation touches no symbol table.
"""

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
            tokens.append(("num", float(m.group().strip()), m.start()))
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


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.i = 0
        self.params = dict(params)
        self.params.setdefault("pi", math.pi)
        # vector symbol -> highest 1-based coordinate read (0: only norm())
        self.symbols = {}

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}, found {value!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing token {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                node = Bin(value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right associative; exponent may carry its own unary minus
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            return self.name_atom(value, pos)
        raise ExprError(f"unexpected token {value!r}", pos)

    def name_atom(self, name, pos):
        nxt_kind, nxt_value, _ = self.peek()
        if name in _FUNCTIONS or name == "norm":
            if not (nxt_kind == "op" and nxt_value == "("):
                raise ExprError(f"function {name} requires an argument", pos)
            self.advance()
            if name == "norm":
                kind, sym, sym_pos = self.advance()
                if kind != "name" or _VECTOR_RE.match(sym) is None:
                    raise ExprError("norm takes a vector symbol argument", sym_pos)
                self.expect(")")
                self.symbols.setdefault(sym, 0)
                return Norm(sym)
            node = Call(name, self.expr())
            self.expect(")")
            return node
        if _VECTOR_RE.match(name):
            if nxt_kind == "op" and nxt_value == "[":
                self.advance()
                kind, idx, idx_pos = self.advance()
                if kind != "num" or idx != int(idx):
                    raise ExprError("coordinate index must be an integer", idx_pos)
                if idx < 1:
                    raise ExprError("coordinate indices are 1-based", idx_pos)
                self.expect("]")
                self.symbols[name] = max(self.symbols.get(name, 0), int(idx))
                return Coord(name, int(idx) - 1)
            raise ExprError(
                f"vector symbol {name} needs [k] indexing or a norm() wrapper", pos
            )
        if name in self.params:
            return Num(self.params[name])
        raise ExprError(f"unknown identifier {name!r}", pos)


def parse_expression(text, params=None):
    """Parse one expression into an AST.

    Returns (ast, symbols): ``symbols`` maps every vector symbol the
    expression reads to the highest 1-based coordinate it reads, or to 0
    when it reads the symbol only through norm().
    """
    parser = _Parser(_tokenize(text), params or {})
    ast = parser.parse()
    return ast, parser.symbols


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
