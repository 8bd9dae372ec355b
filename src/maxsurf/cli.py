"""Command line front end.

Five subcommands: solve (one Dirichlet problem), lemma (coercivity
sampling), dualize (conjugate correspondence with round-trip check),
uniqueness (level region, flux scan, Riccati comparison), decay (strip
truncation experiment).  All outputs are plain text keyed off --out;
identical command lines rewrite identical bytes.

Exit codes: 0 success, 1 usage or input error (also an input too large
for memory, and a failed verification, which one stderr line names),
2 solver non-convergence, 3 empty level region (the two fields coincide at
the chosen level; not a failure).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .duality import DIRECTIONS, conjugates, return_trip_error
from .expressions import Expression, ExpressionError
from .lorentz import sample_coercivity
from .mesh import (ARTIFICIAL, DIRICHLET, Mesh, build_annulus,
                   build_rectangle, build_strip, load_mesh)
from .records import record_lines, write_record, write_csv
from .solver import (SIGMA_MIN, Evaluation, NonConvergenceError,
                     SolverConfig, load_field, residual, residual_norm,
                     save_field, save_trace, solve)
from .uniqueness import (comparison_verdict, flux_scan, level_region,
                         perturbation_decay, radial_grid, riccati_comparison,
                         save_scan)

ODE_HEADER = "t,y"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------------
# input plumbing
# ----------------------------------------------------------------------


def _config_tokens(path: str) -> list[str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    tokens: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise UsageError(f"config line is not key=value: {line!r}")
            tokens.append("--" + key.strip().replace("_", "-"))
            tokens.append(value.strip())
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice config-file key=value pairs in as flags, where they appear.

    Flags written after --config on the command line override the file.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config requires a file path")
            out.extend(_config_tokens(argv[i + 1]))
            i += 2
        elif tok.startswith("--config="):
            out.extend(_config_tokens(tok.split("=", 1)[1]))
            i += 1
        else:
            out.append(tok)
            i += 1
    return out


def _positive(value: str, what: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise UsageError(f"{what} is not a number: {value!r}") from None
    if not 0.0 < x < np.inf:
        raise UsageError(f"{what} must be positive and finite, got {value}")
    return x


def _build_mesh(args) -> Mesh:
    if getattr(args, "mesh", None):
        if args.shape:
            raise UsageError("give either --mesh or --shape, not both")
        return load_mesh(args.mesh)
    if not args.shape:
        raise UsageError("a mesh is required: --shape or --mesh")
    if args.h is None:
        raise UsageError("--shape requires --h")
    h = _positive(str(args.h), "--h")
    spec = args.shape
    kind, _, rest = spec.partition(":")
    sides = [s for s in (args.artificial or "").split(",") if s]
    if kind in ("rect", "strip"):
        dims = rest.split("x")
        if len(dims) != 2:
            raise UsageError(f"expected {kind}:LENGTHxHEIGHT, got {spec!r}")
        length = _positive(dims[0], "length")
        height = _positive(dims[1], "height")
        if kind == "strip":
            if sides:
                raise UsageError("strip ends are always artificial; "
                                 "--artificial does not apply")
            return build_strip(length, height, h)
        return build_rectangle(length, height, h, artificial_sides=sides)
    if kind == "annulus":
        radii = rest.split(":")
        if len(radii) != 2:
            raise UsageError(f"expected annulus:RIN:ROUT, got {spec!r}")
        return build_annulus(_positive(radii[0], "inner radius"),
                             _positive(radii[1], "outer radius"),
                             h, artificial_rings=sides)
    raise UsageError(f"unknown shape kind {kind!r} "
                     "(expected rect, strip, or annulus)")


def _expression(text: str) -> Expression:
    try:
        return Expression(text)
    except ExpressionError as exc:
        raise UsageError(f"bad expression {text!r}: {exc}") from None


def _boundary_values(spec: str, mesh: Mesh, where=None) -> np.ndarray:
    if spec.startswith("@"):
        return load_field(mesh, spec[1:])
    return _expression(spec).boundary_data(mesh, where)


def _emit(items, path) -> None:
    write_record(path, items)
    for line in record_lines(items):
        print(line)


def _verified(failures: int, message: str) -> int:
    """Exit code of a verification: 0, or 1 after naming the failed check."""
    if failures:
        print(message, file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_solve(args) -> int:
    mesh = _build_mesh(args)
    bc = _boundary_values(args.bc, mesh)
    config = SolverConfig(metric=args.metric, residual_tol=args.tol,
                          max_newton=args.max_newton)
    values, report = solve(mesh, bc, config)
    save_field(mesh, values, f"{args.out}_solution.csv")
    if args.trace:
        save_trace([report], f"{args.out}_trace.csv")
    _emit(report.record_items(), f"{args.out}_report.txt")
    if not report.converged:
        print(f"not converged: {report.reason}", file=sys.stderr)
        return 2
    return 0


def cmd_lemma(args) -> int:
    report = sample_coercivity(args.eps, n_samples=args.samples,
                               seed=args.seed)
    _emit(report.record_items(), f"{args.out}_lemma.txt")
    return _verified(report.violations,
                     f"{report.violations} coercivity violations")


def cmd_dualize(args) -> int:
    mesh = _build_mesh(args)
    field = load_field(mesh, args.infile)
    forward, _ = conjugates(args.direction)
    conj = forward(mesh, field, args.closedness_tol)
    err = return_trip_error(mesh, field, conj, args.direction)
    save_field(mesh, conj, f"{args.out}_conjugate.csv")
    _emit([("direction", args.direction),
           ("round_trip_error", err),
           ("closedness_tol", args.closedness_tol)],
          f"{args.out}_roundtrip.txt")
    return 0


def cmd_uniqueness(args) -> int:
    mesh = _build_mesh(args)
    if args.v or args.vprime:
        if not (args.v and args.vprime):
            raise UsageError("--v and --vprime go together")
        v = load_field(mesh, args.v)
        vp = load_field(mesh, args.vprime)
        _check_solutions(mesh, [(args.v, v), (args.vprime, vp)], args.tol)
    else:
        if not args.bc:
            raise UsageError("inline solves need --bc (plus --art0/--art1)")
        # each expression is checked only where a solve reads it: --bc at
        # the artificial vertices only if --art0 or --art1 leaves them to it
        ends = mesh.vertex_class == ARTIFICIAL
        arts = (args.art0, args.art1)
        used = None if None in arts else mesh.vertex_class == DIRICHLET
        bc1 = _boundary_values(args.bc, mesh, used)  # a fresh array
        bc0 = bc1.copy()
        for bc, art in zip((bc0, bc1), arts):
            if art is not None:
                bc[ends] = _expression(art).boundary_data(mesh, ends)[ends]
        config = SolverConfig(metric="lorentz", residual_tol=args.tol)
        v, rep0 = solve(mesh, bc0, config)
        del bc0  # the second solve reads only bc1
        vp, rep1 = solve(mesh, bc1, config)
        if args.trace:
            save_trace([rep0, rep1], f"{args.out}_trace.csv")
        for tag, rep in (("first", rep0), ("second", rep1)):
            if not rep.converged:
                print(f"{tag} solve did not converge: {rep.reason}",
                      file=sys.stderr)
                return 2

    region = level_region(mesh, v, vp)
    if region.empty:
        _emit([("empty_region", True),
               ("delta", region.delta),
               ("a", region.a)],
              f"{args.out}_verdict.txt")
        print("level region is empty: the fields coincide at this level",
              file=sys.stderr)
        return 3

    if args.radii:
        radii = np.array([_positive(r, "radius")
                          for r in args.radii.split(",")])
    else:
        radii = radial_grid(mesh, region, ratio=args.ratio)
    scan = flux_scan(mesh, v, vp, region, radii, tol_rel=args.tol_rel)
    t, y = riccati_comparison(scan.r0, scan.mu, scan.delta, scan.c_eps)
    verdict = comparison_verdict(scan)
    save_scan(scan, f"{args.out}_scan.csv")
    write_csv(f"{args.out}_ode.csv", ODE_HEADER, [t, y])
    _emit(verdict.record_items(), f"{args.out}_verdict.txt")
    return _verified(scan.n_flagged, f"{scan.n_flagged} of {len(scan.radii)} "
                     "radii break the flux inequality")


def _check_solutions(mesh: Mesh, fields, tol: float) -> None:
    """Refuse loaded fields outside the comparison's premises.

    The flux inequality compares two solutions of one Dirichlet problem:
    each (path, field) must be spacelike at SIGMA_MIN and pass the stop
    ``solve`` applies, ``residual_norm`` of its residual at most ``tol``,
    and the two must agree at every DIRICHLET vertex.
    """
    for path, field in fields:
        ev = Evaluation(mesh, field, "lorentz")
        if not ev.spacelike(SIGMA_MIN):
            raise ValueError(f"field {path} is not spacelike: max |grad| "
                             f"{ev.max_norm:.6g}")
        res = residual_norm(mesh, residual(mesh, ev))
        if not res <= tol:
            raise ValueError(f"field {path} does not solve the maximal "
                             f"surface equation: residual {res:.3e} above "
                             f"--tol {tol:g}")
    (path0, v0), (path1, v1) = fields
    dirichlet = mesh.vertex_class == DIRICHLET
    if not np.array_equal(v0[dirichlet], v1[dirichlet]):
        raise ValueError(f"fields {path0} and {path1} differ at a dirichlet "
                         "vertex")


def cmd_decay(args) -> int:
    lengths = [_positive(tok, "length") for tok in args.lengths.split(",")]
    phi = None if args.phi is None else _expression(args.phi)
    table = perturbation_decay(lengths, s=args.s, phi=phi,
                               height=_positive(str(args.height), "--height"),
                               h=_positive(str(args.h), "--h"),
                               metric=args.metric)
    table.save(f"{args.out}_decay.csv")
    for length, diff in zip(table.lengths, table.diffs):
        print(f"L={length:g} diff={diff:.17g}")
    return _verified(not table.strictly_decreasing,
                     "center differences do not decrease strictly")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_mesh_flags(sub, shapes: str) -> None:
    sub.add_argument("--shape", help=f"mesh shape, one of {shapes}")
    sub.add_argument("--h", type=float, help="target edge length")
    sub.add_argument("--mesh", help="load a saved mesh file instead")
    sub.add_argument("--artificial",
                     help="comma list of artificial boundary parts "
                          "(rect: left,right,bottom,top; annulus: inner,outer)")


def _add_common(sub) -> None:
    sub.add_argument("--out", default="out", help="output file prefix")
    sub.add_argument("--config", help="key=value file spliced in as flags")


def _add_trace(sub) -> None:
    sub.add_argument("--trace", action="store_true",
                     help="also write one row per Newton step to "
                          "<out>_trace.csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="maxsurf", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", description="Solve one Dirichlet problem.")
    _add_mesh_flags(sub, "rect:LxH, strip:LxH, annulus:RIN:ROUT")
    sub.add_argument("--metric", choices=("lorentz", "euclid"),
                     default="lorentz")
    sub.add_argument("--bc", required=True,
                     help="boundary data: expression in x,y,r or @field.csv")
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="residual tolerance")
    sub.add_argument("--max-newton", type=int, default=50)
    _add_common(sub)
    _add_trace(sub)
    sub.set_defaults(handler=cmd_solve)

    sub = subs.add_parser("lemma",
                          description="Sample the coercivity inequality.")
    sub.add_argument("--eps", type=float, required=True,
                     help="gradient margin, in (0, 1]")
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)
    sub.set_defaults(handler=cmd_lemma)

    sub = subs.add_parser("dualize",
                          description="Conjugate a solution and round-trip it.")
    _add_mesh_flags(sub, "rect:LxH (must be simply connected)")
    sub.add_argument("--in", dest="infile", required=True,
                     help="solution field CSV")
    sub.add_argument("--direction", choices=tuple(DIRECTIONS),
                     required=True)
    sub.add_argument("--closedness-tol", type=float, default=1e-9)
    _add_common(sub)
    sub.set_defaults(handler=cmd_dualize)

    sub = subs.add_parser(
        "uniqueness",
        description="Level region, flux scan, and Riccati comparison "
                    "for a pair of fields.")
    _add_mesh_flags(sub, "annulus:RIN:ROUT (circles are origin-centered)")
    sub.add_argument("--v", help="first field CSV")
    sub.add_argument("--vprime", help="second field CSV")
    sub.add_argument("--bc", help="shared true-boundary data (inline solves)")
    sub.add_argument("--art0", help="artificial data for the first solve")
    sub.add_argument("--art1", help="artificial data for the second solve")
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="solver residual tolerance for inline solves")
    sub.add_argument("--radii", help="comma list; default: geometric grid")
    sub.add_argument("--ratio", type=float, default=1.1,
                     help="geometric grid ratio")
    sub.add_argument("--tol-rel", type=float, default=0.05,
                     help="relative slack for the inequality flags")
    _add_common(sub)
    _add_trace(sub)
    sub.set_defaults(handler=cmd_uniqueness)

    sub = subs.add_parser("decay",
                          description="Boundary-perturbation decay on strips.")
    sub.add_argument("--lengths", required=True,
                     help="comma list, strictly increasing")
    sub.add_argument("--s", type=float, required=True,
                     help="artificial-end offset between the two solves")
    sub.add_argument("--phi", default=None,
                     help="true-boundary data expression (default 0)")
    sub.add_argument("--height", type=float, default=4.0)
    sub.add_argument("--h", type=float, default=0.25)
    sub.add_argument("--metric", choices=("lorentz", "euclid"),
                     default="lorentz")
    _add_common(sub)
    sub.set_defaults(handler=cmd_decay)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(argv))
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
