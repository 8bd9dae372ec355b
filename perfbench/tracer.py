"""Outside-in tracer: spans around calls into each ``maxsurf`` layer.

``Tracer.install`` replaces each listed public function, in every
``maxsurf`` module namespace that holds it, with a wrapper that records a
span (name, start, end, parent) and a few counts taken from the call's
arguments or result.  Nothing under ``src/`` changes and the arithmetic is
untouched: CG matvecs are counted by handing ``cg_solve`` a proxy that
forwards ``diagonal()`` and ``@`` to the real operator.

A call into a span name that is already open (``build_strip`` calling
``build_rectangle``, ``round_trip_error`` calling ``maximal_conjugate``)
runs unwrapped, so it counts once, inside the outermost span.

``layer_metrics`` turns the spans of one workload run into the per-layer
metrics; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter


class CountingOperator:
    """Forwards ``@`` and attribute lookups (``diagonal``) to an operator."""

    def __init__(self, operator):
        self._operator = operator
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self._operator @ x

    def __getattr__(self, name):
        return getattr(self._operator, name)


def _vertices(args, result):
    return {"vertices": result.vertex_count}


def _newton(args, result):
    return {"newton_steps": result[1].iterations}


def _pieces(args, result):
    return {"pieces": len(result[0])}


def _radii(args, result):
    return {"radii": len(result.radii)}


def _rows_written(args, result):
    path, _, columns = args[:3]
    return {"rows": len(columns[0]) if len(columns) else 0,
            "bytes": os.path.getsize(path)}


def _record_written(args, result):
    path, items = args[:2]
    return {"rows": len(items), "bytes": os.path.getsize(path)}


def _rows_read(args, result):
    return {"rows": len(result)}


# (module, function) -> (span name, counts taken from the call)
TRACED = {
    ("mesh", "build_rectangle"): ("mesh.build", _vertices),
    ("mesh", "build_strip"): ("mesh.build", _vertices),
    ("mesh", "build_annulus"): ("mesh.build", _vertices),
    ("mesh", "load_mesh"): ("mesh.load", _vertices),
    ("lorentz", "flux_coeffs"): ("lorentz.flux_coeffs", None),
    ("solver", "solve"): ("solver.solve", _newton),
    ("solver", "cg_solve"): ("solver.cg", None),
    ("solver", "tangent_matrix"): ("solver.tangent", None),
    ("solver", "residual"): ("solver.residual", None),
    ("solver", "residual_norm"): ("solver.residual_norm", None),
    ("solver", "p1_gradient"): ("solver.gradient", None),
    ("forms", "polyline_pieces"): ("forms.polyline", _pieces),
    ("forms", "integrate_potential"): ("forms.potential", None),
    ("forms", "circulations"): ("forms.circulation", None),
    ("forms", "flux_form"): ("forms.flux_form", None),
    ("uniqueness", "level_region"): ("uniqueness.level", None),
    ("uniqueness", "flux_scan"): ("uniqueness.scan", _radii),
    ("duality", "maximal_conjugate"): ("duality", None),
    ("duality", "minimal_conjugate"): ("duality", None),
    ("duality", "round_trip_error"): ("duality", None),
    ("records", "write_csv"): ("records.write", _rows_written),
    ("records", "write_record"): ("records.write", _record_written),
    ("records", "read_csv"): ("records.read", _rows_read),
}
CLI_SPAN = "cli"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counts] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    def span(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            proxy = None
            if name == "solver.cg":
                proxy = CountingOperator(args[0])
                args = (proxy,) + args[1:]
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(row)
            self._stack.append(index)
            self._open.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._open.discard(name)
                self._stack.pop()
                if proxy is not None:
                    row[4]["matvecs"] = proxy.matvecs
            if counts is not None:
                row[4].update(counts(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a maxsurf module holds it."""
        import maxsurf.cli  # noqa: F401  (imports every layer)
        from maxsurf.expressions import Expression

        modules = [m for key, m in sys.modules.items()
                   if key == "maxsurf" or key.startswith("maxsurf.")]
        for (home, attr), (name, counts) in TRACED.items():
            original = getattr(sys.modules[f"maxsurf.{home}"], attr)
            wrapped = self.span(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        Expression.__call__ = self.span("expressions.eval",
                                        Expression.__call__)

    def run_cli(self, argv: list[str]) -> int:
        import maxsurf.cli

        return self.span(CLI_SPAN, maxsurf.cli.main)(argv)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

# metric -> (unit, better)
PER_LAYER = {
    "mesh.build_s": ("s", "lower"),
    "mesh.build_calls": ("count", "lower"),
    "mesh.load_s": ("s", "lower"),
    "mesh.load_calls": ("count", "lower"),
    "mesh.vertices": ("count", "lower"),
    "lorentz.flux_coeffs_s": ("s", "lower"),
    "lorentz.flux_coeffs_calls": ("count", "lower"),
    "solver.cg_s": ("s", "lower"),
    "solver.cg_calls": ("count", "lower"),
    "solver.cg_matvecs": ("count", "lower"),
    "solver.matvecs_per_cg": ("ratio", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.newton_steps": ("count", "lower"),
    "solver.tangent_s": ("s", "lower"),
    "solver.tangent_calls": ("count", "lower"),
    "solver.residual_s": ("s", "lower"),
    "solver.residual_calls": ("count", "lower"),
    "solver.residual_norm_calls": ("count", "lower"),
    "solver.gradient_evals": ("count", "lower"),
    "solver.accept_ratio": ("ratio", "higher"),
    "forms.polyline_s": ("s", "lower"),
    "forms.polyline_calls": ("count", "lower"),
    "forms.pieces": ("count", "lower"),
    "forms.potential_s": ("s", "lower"),
    "forms.potential_calls": ("count", "lower"),
    "forms.circulation_s": ("s", "lower"),
    "forms.flux_form_s": ("s", "lower"),
    "uniqueness.scan_self_s": ("s", "lower"),
    "uniqueness.level_s": ("s", "lower"),
    "uniqueness.radii": ("count", "lower"),
    "duality.self_s": ("s", "lower"),
    "records.write_s": ("s", "lower"),
    "records.write_rows": ("count", "lower"),
    "records.read_s": ("s", "lower"),
    "records.read_rows": ("count", "lower"),
    "records.bytes_out": ("bytes", "lower"),
    "expressions.eval_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one workload run from its processes' spans.

    ``trace.overhead_s`` needs the untraced time and is added by the caller.
    """
    total = Counter()   # inclusive seconds per span name
    own = Counter()     # self seconds per span name
    calls = Counter()
    counts = Counter()  # (span name, count name) -> sum
    for spans in span_lists:
        child_time = Counter()
        for name, start, end, parent, extra in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, extra) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
            for key, value in extra.items():
                counts[name, key] += value

    trials = calls["solver.residual_norm"] - calls["solver.solve"]
    newton = counts["solver.solve", "newton_steps"]
    metrics = {
        "mesh.build_s": total["mesh.build"],
        "mesh.build_calls": calls["mesh.build"],
        "mesh.load_s": total["mesh.load"],
        "mesh.load_calls": calls["mesh.load"],
        "mesh.vertices": (counts["mesh.build", "vertices"]
                          + counts["mesh.load", "vertices"]),
        "lorentz.flux_coeffs_s": total["lorentz.flux_coeffs"],
        "lorentz.flux_coeffs_calls": calls["lorentz.flux_coeffs"],
        "solver.cg_s": total["solver.cg"],
        "solver.cg_calls": calls["solver.cg"],
        "solver.cg_matvecs": counts["solver.cg", "matvecs"],
        "solver.matvecs_per_cg": (counts["solver.cg", "matvecs"]
                                  / max(calls["solver.cg"], 1)),
        "solver.solve_s": total["solver.solve"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.self_s": own["solver.solve"],
        "solver.newton_steps": newton,
        "solver.tangent_s": total["solver.tangent"],
        "solver.tangent_calls": calls["solver.tangent"],
        "solver.residual_s": total["solver.residual"],
        "solver.residual_calls": calls["solver.residual"],
        "solver.residual_norm_calls": calls["solver.residual_norm"],
        "solver.gradient_evals": calls["solver.gradient"],
        "solver.accept_ratio": newton / trials if trials > 0 else 1.0,
        "forms.polyline_s": total["forms.polyline"],
        "forms.polyline_calls": calls["forms.polyline"],
        "forms.pieces": counts["forms.polyline", "pieces"],
        "forms.potential_s": total["forms.potential"],
        "forms.potential_calls": calls["forms.potential"],
        "forms.circulation_s": total["forms.circulation"],
        "forms.flux_form_s": total["forms.flux_form"],
        "uniqueness.scan_self_s": own["uniqueness.scan"],
        "uniqueness.level_s": total["uniqueness.level"],
        "uniqueness.radii": counts["uniqueness.scan", "radii"],
        "duality.self_s": own["duality"],
        "records.write_s": total["records.write"],
        "records.write_rows": counts["records.write", "rows"],
        "records.read_s": total["records.read"],
        "records.read_rows": counts["records.read", "rows"],
        "records.bytes_out": counts["records.write", "bytes"],
        "expressions.eval_s": total["expressions.eval"],
        "cli.self_s": own[CLI_SPAN],
    }
    return {key: float(value) if key.endswith("_s") else value
            for key, value in metrics.items()}


def is_count(metric: str) -> bool:
    """Counters repeat exactly between runs; times and the overhead do not."""
    return PER_LAYER[metric][0] in ("count", "bytes", "ratio")
