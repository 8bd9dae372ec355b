"""Arithmetic expressions for boundary data.

Accepts + - * / ^ (also **), unary + and -, parentheses, decimal literals
(2, 1., .5, 1e-3, 2E+2), the variables x, y and r = sqrt(x^2 + y^2), and
one-argument calls of sin, cos, exp, asinh, sqrt and abs.  Python's parser
reads the text with ^ as **, so powers bind right and tighter than unary
minus (x^-2, 2^3^2, -x^2).  Anything else is rejected, as are literals other
than plain decimals (1_000, 0x10, 1j, True) and trees deeper than MAX_DEPTH.
Constants are np.float64 and the arithmetic is IEEE: 1/0 is inf and
(-8)^(1/3) is nan, never an exception or a complex number.
"""

from __future__ import annotations

import ast
import operator
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
MAX_DEPTH = 200  # well inside the recursion limit: one frame per level

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


class ExpressionError(ValueError):
    """Malformed boundary expression."""


def _compile(node, source: str, depth: int):
    """Closure env -> value of the tree at node; raises outside the grammar."""
    if depth >= MAX_DEPTH:
        raise ExpressionError(f"nested deeper than {MAX_DEPTH} levels")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a = _compile(node.left, source, depth + 1)
        b = _compile(node.right, source, depth + 1)
        return lambda env: op(a(env), b(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
        a = _compile(node.operand, source, depth + 1)
        return (lambda env: -a(env)) if isinstance(node.op, ast.USub) else a
    # the source text, not the node, decides: Python reads 1_000, 0x10 and
    # True as numbers, and NFKC-normalises names (a fullwidth x is x)
    text = ast.get_source_segment(source, node)
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(text):
        value = np.float64(float(text))
        return lambda env: value
    if isinstance(node, ast.Name) and text == node.id and text in VARIABLES:
        return lambda env: env[text]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and ast.get_source_segment(source, node.func) == node.func.id
            and node.func.id in FUNCTIONS
            and len(node.args) == 1 and not node.keywords):
        fn = FUNCTIONS[node.func.id]
        a = _compile(node.args[0], source, depth + 1)
        return lambda env: fn(a(env))
    raise ExpressionError(f"not allowed: {text!r}")


class Expression:
    """Compiled expression; call with coordinate arrays to evaluate."""

    def __init__(self, text: str):
        self.text = text
        source = text.replace("^", "**").strip()
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(exc.msg) from None
        except (RecursionError, MemoryError):
            # how the parser reports running out of its own stack
            raise ExpressionError(
                f"nested deeper than {MAX_DEPTH} levels") from None
        self._fn = _compile(tree.body, source, 0)

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        env = {"x": x, "y": y, "r": np.hypot(x, y)}
        with np.errstate(all="ignore"):
            out = self._fn(env)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    def boundary_data(self, mesh, where=None) -> np.ndarray:
        """Values at the mesh's vertices, finite at the vertices ``where``.

        ``where`` indexes the vertices whose values are used; it defaults
        to the mesh's constrained vertices.
        """
        values = self(mesh.vertices[:, 0], mesh.vertices[:, 1])
        if where is None:
            where = mesh.constrained_vertices
        if not np.isfinite(values[where]).all():
            raise ValueError(
                f"expression {self.text!r} is not finite on the boundary")
        return values
