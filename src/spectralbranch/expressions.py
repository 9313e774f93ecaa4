"""Tiny arithmetic expression language for matrix entries and potentials.

Grammar (whitespace insensitive):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          integer exponents only
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Numbers allow decimals and scientific notation.  The known functions are
sin, cos, exp, sqrt and abs; variables default to just ``t``.  Every parse or
evaluation failure raises ExpressionError annotated with the 0-based source
position.  Parsing compiles the tree to closures once; a variable may hold a
numpy array, and the result is then bit-equal to evaluating each element.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            at = len(src) - len(rest)
            raise ExpressionError(f"unexpected character {rest[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.src = src
        self.variables = variables
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        kind, _, pos = self.peek()
        if kind == "end":
            raise ExpressionError("empty expression", pos)
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if text == "+" else "sub", node, rhs, pos)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = ("mul" if text == "*" else "div", node, rhs, pos)
            else:
                return node

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return ("neg", self.unary(), pos)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            return ("pow", base, exponent, pos)
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "number":
            return ("num", float(text), pos)
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", text, arg, pos)
            if text in self.variables:
                return ("var", text, pos)
            raise ExpressionError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def _elementwise(fn, *args):
    """fn on plain floats, once per element when any argument is an array.

    ``call`` and ``pow`` go through here so they use ``math`` and
    ``float.__pow__`` exactly as a scalar evaluation would; numpy's ``exp``
    and ``**`` round differently in the last bit.
    """
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*(float(a) for a in args))
    cols = np.broadcast_arrays(*args)
    flat = zip(*(c.ravel().tolist() for c in cols))
    return np.array([fn(*vals) for vals in flat], dtype=np.float64).reshape(cols[0].shape)


def _compile(node):
    """Closure env -> value for one AST node.

    Values are floats or, when a variable holds a numpy array, arrays of the
    same shape.  ``num``, ``var``, ``neg`` and the four arithmetic operators
    are exact IEEE operations, so evaluating over an array gives the same
    bits as evaluating each element on its own.
    """
    op = node[0]
    if op == "num":
        value = node[1]
        return lambda env: value
    if op == "var":
        name = node[1]
        return lambda env: env[name]
    if op == "neg":
        arg = _compile(node[1])
        return lambda env: -arg(env)
    if op == "call":
        _, name, arg_node, pos = node
        fn, arg = FUNCTIONS[name], _compile(arg_node)

        def call(x: float) -> float:
            try:
                return float(fn(x))
            except (ValueError, OverflowError) as exc:
                raise ExpressionError(f"{name}({x!r}) failed: {exc}", pos) from exc

        return lambda env: _elementwise(call, arg(env))
    if op == "pow":
        _, base_node, exp_node, pos = node
        base_fn, exp_fn = _compile(base_node), _compile(exp_node)

        def power(base: float, exponent: float) -> float:
            rounded = round(exponent)
            if abs(exponent - rounded) > 1e-9 * (1.0 + abs(exponent)):
                raise ExpressionError(f"exponent must be an integer, got {exponent!r}", pos)
            try:
                return float(base ** int(rounded))
            except (ZeroDivisionError, OverflowError) as exc:
                raise ExpressionError(f"power {base!r}^{int(rounded)} failed: {exc}", pos) from exc

        return lambda env: _elementwise(power, base_fn(env), exp_fn(env))
    _, a_node, b_node, pos = node
    a, b = _compile(a_node), _compile(b_node)
    if op == "add":
        return lambda env: a(env) + b(env)
    if op == "sub":
        return lambda env: a(env) - b(env)
    if op == "mul":
        return lambda env: a(env) * b(env)

    def div(env):
        num, den = a(env), b(env)
        if np.any(den == 0.0):
            raise ExpressionError("division by zero", pos)
        return num / den

    return div


@dataclass(frozen=True)
class Expression:
    """A parsed expression; call it with keyword values for its variables."""

    source: str
    variables: tuple[str, ...]
    _fn: Callable[[dict], float] = field(compare=False, repr=False)

    def evaluate(self, **env: float) -> float:
        """The value at ``env``; an array if any variable holds an array."""
        missing = [v for v in self.variables if v not in env]
        if missing:
            raise ExpressionError(f"missing variable value for {missing[0]!r}")
        return self._fn(env)

    def __call__(self, t: float, **extra: float) -> float:
        return self.evaluate(t=t, **extra)


def parse_expression(src: str, variables: Iterable[str] = ("t",)) -> Expression:
    """Parse ``src`` over the given variable names.

    Unknown identifiers (anything that is neither a listed variable nor a
    known function) are parse-time errors.
    """
    variables = tuple(variables)
    ast = _Parser(src, variables).parse()
    return Expression(source=src, variables=variables, _fn=_compile(ast))
