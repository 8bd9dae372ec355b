"""Arithmetic expressions for boundary data.

Supports +, -, *, /, ^ (also **), parentheses, numeric literals, the
variables x, y, and r = sqrt(x^2 + y^2), and the functions sin, cos, exp,
asinh, sqrt, abs.  Parsed by recursive descent into a closure evaluating
on numpy arrays.  Exponentiation binds right, so x^-2 and 2^3^2 read the
usual way.
"""

from __future__ import annotations

import re

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "asinh": np.arcsinh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
VARIABLES = ("x", "y", "r")

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\*\*|[-+*/^()])
    )
""", re.VERBOSE)


class ExpressionError(ValueError):
    """Malformed boundary expression."""


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at position {pos}")
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class Expression:
    """Compiled expression; call with coordinate arrays to evaluate."""

    def __init__(self, text: str):
        self.text = text
        self._tokens = _tokenize(text)
        self._pos = 0
        self._fn = self._parse_sum()
        kind, value = self._peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {value!r}")
        del self._tokens, self._pos

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        env = {"x": x, "y": y, "r": np.hypot(x, y)}
        with np.errstate(all="ignore"):
            out = self._fn(env)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    # one method per grammar rule, standard recursive descent

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, op: str):
        kind, value = self._next()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, found {value!r}")

    def _parse_sum(self):
        fn = self._parse_product()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self._parse_product()
            if op == "+":
                fn = (lambda a, b: lambda env: a(env) + b(env))(fn, rhs)
            else:
                fn = (lambda a, b: lambda env: a(env) - b(env))(fn, rhs)
        return fn

    def _parse_product(self):
        fn = self._parse_unary()
        while self._peek() == ("op", "*") or self._peek() == ("op", "/"):
            _, op = self._next()
            rhs = self._parse_unary()
            if op == "*":
                fn = (lambda a, b: lambda env: a(env) * b(env))(fn, rhs)
            else:
                fn = (lambda a, b: lambda env: a(env) / b(env))(fn, rhs)
        return fn

    def _parse_unary(self):
        if self._peek() == ("op", "-"):
            self._next()
            inner = self._parse_unary()
            return lambda env: -inner(env)
        if self._peek() == ("op", "+"):
            self._next()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self):
        base = self._parse_atom()
        kind, value = self._peek()
        if kind == "op" and value in ("^", "**"):
            self._next()
            expo = self._parse_unary()
            return lambda env: base(env) ** expo(env)
        return base

    def _parse_atom(self):
        kind, value = self._next()
        if kind == "num":
            const = float(value)
            return lambda env: const
        if kind == "name":
            if value in FUNCTIONS:
                fn = FUNCTIONS[value]
                self._expect("(")
                arg = self._parse_sum()
                self._expect(")")
                return lambda env: fn(arg(env))
            if value in VARIABLES:
                name = value
                return lambda env: env[name]
            raise ExpressionError(f"unknown name {value!r}")
        if kind == "op" and value == "(":
            inner = self._parse_sum()
            self._expect(")")
            return inner
        raise ExpressionError(f"unexpected {value!r}" if value
                              else "unexpected end of expression")

