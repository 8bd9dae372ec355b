"""P1 finite element solver for the maximal and minimal surface equations.

The unknown is a piecewise-linear vertex field; dirichlet and artificial
vertices are constrained, interior vertices are free.  The weak residual of
div(sigma(grad v)) = 0 with flux sigma(g) = g / sqrt(1 -+ |g|^2) is driven
to zero by a damped inexact Newton iteration.  Each Newton system is solved
only to a relative tolerance, the forcing term, that tightens as the
nonlinear residual falls (Eisenstat & Walker, SIAM J. Sci. Comput. 17
(1996) 16-32, choice 2), by conjugate gradients preconditioned by one
smoothed-aggregation multigrid V-cycle (Vanek, Mandel & Brezina, Computing
56 (1996) 179-196).  The Newton matrix is filled edge by edge: one value
per mesh edge, the diagonal from the zero row sums of the P1 basis.  Each
mesh gets, on first use, an assembly plan: the P1 sparsity pattern of the
free-vertex block, the order that gathers the free-free diagonal and edge
values into it, and the aggregates of the multigrid hierarchy.  In the
Lorentzian metric every iterate is kept strictly spacelike: per-triangle
|grad v| never reaches 1 - SIGMA_MIN.

The residual, ``forms.circulations`` and the harmonic extension's
right-hand side are one weak divergence, ``p1_divergence``, the
area-weighted transpose of ``p1_gradient``.

Each iterate is evaluated once: its P1 gradient, squared norms, largest
norm and area density are kept in one ``_Evaluation``, made for each
line-search candidate and for the initial guess, and read by the
spacelike test, the residual, the energy, the next Newton matrix and the
reported margins.  The pointwise kernels work on the contiguous (T,)
rows of ``Mesh.basis_columns`` and of the gradient.  The vector
reductions (PCG inner products and norms, the energy sum and the residual
norm) are summed by numpy's own loop, not by BLAS: a threaded BLAS splits
long dot products over its worker threads, which then spin between calls
through the whole solve, spending CPU time that buys no speed; a CLI
process, which imports maxsurf before numpy, runs one OpenBLAS thread.
The V-cycle build makes no dense BLAS call either: the aggregates reduce
over a padded link table (``reduceat`` for a hub row), its products are
sparse, and the bottom inverse is a symmetric sweep in numpy's loops.

The hierarchy is lagged across the Newton systems of one solve (Knoll &
Keyes, J. Comput. Phys. 193 (2004) 357-397, section 3): the first system
builds a V-cycle, and later ones keep its smoothed prolongators, Galerkin
coarse operators and bottom inverse, and swap only the finest level for
their own matrix and Jacobi weights.  A lagged system that needs more than
LAG_RATE_FACTOR times the PCG matvecs per decade of residual reduction of
the system the cycle was built for (decades counted as at least
LAG_MIN_DECADES) makes the next system build afresh; a cycle without
coarse levels is rebuilt for every system.  The harmonic extension's
Laplace cycle is never lagged into Newton.  The linear residual the line
search computes at the accepted iterate is the next system's right-hand
side.
"""

from __future__ import annotations

import copy
import math
from dataclasses import astuple, dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .lorentz import SpacelikeError, _spacelike_density
from .mesh import Mesh
from .records import write_csv, read_csv

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

METRICS = ("lorentz", "euclid")

SIGMA_MIN = 1e-8          # Lorentz iterates keep |grad v| below 1 - SIGMA_MIN
LINE_SEARCH_FLOOR = 1e-12
BACKTRACK_FACTOR = 0.5    # step shrink factor of the line search
SUFFICIENT_DECREASE = 1e-4  # accept when |F| <= (1 - c step) |F_k|
INITIAL_MARGIN_FACTOR = 10.0  # initial guess obeys |grad| <= 1 - 10 SIGMA_MIN

# inexact Newton: Eisenstat-Walker forcing terms, choice 2
FORCING_MAX = 0.5         # the first and the loosest relative linear tolerance
FORCING_GAMMA = 0.9       # eta_k = gamma (|F_k| / |F_k-1|)^2
FORCING_SAFEGUARD = 0.1   # keep gamma eta_k-1^2 when it is above this
LINEAR_TOL = 1e-12        # floor of the forcing terms; harmonic extension tolerance

# smoothed-aggregation multigrid
STRENGTH_THETA = 0.1      # strong link: |a_ij| >= theta sqrt(a_ii a_jj)
STALL_FRACTION = 0.5      # coarsening stalls above this size ratio; retry at theta 0
COARSE_SIZE = 300         # levels this small are solved densely
JACOBI_WEIGHT = 4.0 / 3.0  # over the Gershgorin bound of D^-1 A
COARSE_RCOND = 1e-13      # bottom pivots up to this fraction of the largest diagonal are dropped

# lagged hierarchy: rebuild after a lagged system this much slower per decade
LAG_RATE_FACTOR = 2.0
LAG_MIN_DECADES = 1.0     # looser solves count as one decade

TRACE_HEADER = ("solve,step,residual,forcing,matvecs,achieved,step_length,"
                "backtracks,cycle,energy,margin")


class NonConvergenceError(RuntimeError):
    """Linear solve failed; carries the relative residual that was reached."""

    def __init__(self, message: str, achieved: float):
        self.achieved = float(achieved)
        super().__init__(f"{message} (relative residual {self.achieved:.3e})")


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: metric, area-scaled residual tolerance, Newton cap."""

    metric: str = "lorentz"
    residual_tol: float = 1e-10
    max_newton: int = 50

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        # false for nan as well
        if not 0.0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")


@dataclass(frozen=True)
class NewtonStep:
    """One accepted Newton iterate and the step that reached it.

    ``residual`` and ``energy`` are the iterate's; ``forcing`` is the
    relative tolerance its linear system was given and ``achieved`` the
    relative residual PCG reached in ``matvecs`` products; the line search
    took ``step_length`` after ``backtracks`` halvings; ``cycle`` says
    whether the V-cycle was "built" or "lagged"; ``margin`` is the
    iterate's 1 - max_T |grad v|.  The initial guess is step 0, reached by
    no step: nan forcing and achieved, zero counts and cycle "none".
    """

    residual: float
    forcing: float
    matvecs: int
    achieved: float
    step_length: float
    backtracks: int
    cycle: str
    energy: float
    margin: float


@dataclass
class SolveReport:
    """Outcome of one solve; serialized as a flat key=value record.

    ``steps`` holds one NewtonStep per accepted iterate, the initial guess
    first; it is empty when no initial guess was found.
    """

    iterations: int
    residual: float
    margin: float
    energy: float
    converged: bool
    reason: str = ""
    steps: list = field(default_factory=list)

    def record_items(self):
        return [
            ("iterations", self.iterations),
            ("residual", self.residual),
            ("margin", self.margin),
            ("energy", self.energy),
            ("converged", self.converged),
        ]


# ----------------------------------------------------------------------
# pointwise pieces
# ----------------------------------------------------------------------


def p1_gradient(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """(T, 2) constant gradient of the piecewise-linear interpolant.

    Computed row by row from ``mesh.basis_columns``, so the result is the
    transposed view of a (2, T) array of contiguous x and y rows.
    """
    values = _check_field(mesh, values)
    v0, v1, v2 = values[mesh.triangles.T]
    g = np.empty((2, mesh.triangle_count))
    for row, (b0, b1, b2) in zip(g, mesh.basis_columns):
        np.multiply(v0, b0, out=row)
        row += v1 * b1
        row += v2 * b2
    return g.T


def p1_divergence(mesh: Mesh, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """(V,) weak divergence of the piecewise-constant field (fx, fy).

    Component i is sum_T area_T grad(phi_i) . f_T, the area-weighted
    transpose of ``p1_gradient``.  Computed from the (T,) rows of
    ``mesh.basis_columns`` and summed per vertex by one ``bincount``,
    triangle by triangle and corners 0, 1, 2 within each triangle.
    """
    wx = mesh.areas * fx
    wy = mesh.areas * fy
    bx, by = mesh.basis_columns
    local = np.empty((mesh.triangle_count, 3))
    for i in range(3):
        local[:, i] = bx[i] * wx + by[i] * wy
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.vertex_count)


def _check_field(mesh: Mesh, values, where=slice(None)) -> np.ndarray:
    """``values`` as a (V,) float array, finite at the vertices ``where``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.vertex_count,):
        raise ValueError("field length does not match the mesh")
    if not np.isfinite(values[where]).all():
        raise ValueError("field contains non-finite values")
    return values


class _Evaluation:
    """The pointwise P1 data of one field, computed once.

    ``gx`` and ``gy`` are the (T,) rows of the triangle gradients, ``norm2``
    their squared norms and ``max_norm`` the largest norm.  ``density`` is
    the area density sqrt(1 -+ |g|^2), made on first use; the flux is
    sigma(g) = g / density.  In the Lorentz metric it raises SpacelikeError
    once some |g| reaches 1 - SIGMA_MIN.  ``solve`` builds one per
    line-search candidate and hands it to ``residual``, ``energy`` and the
    next ``tangent_matrix``.
    """

    def __init__(self, mesh: Mesh, values: np.ndarray, metric: str):
        self.values = values
        self.gx, self.gy = p1_gradient(mesh, values).T
        self.norm2 = self.gx * self.gx + self.gy * self.gy
        self.max_norm = float(np.sqrt(self.norm2.max()))
        self.metric = metric

    @cached_property
    def density(self) -> np.ndarray:
        if self.metric == "lorentz":
            return _spacelike_density(self.norm2, SIGMA_MIN)
        return np.sqrt(1.0 + self.norm2)


def _evaluation(mesh: Mesh, values, config: SolverConfig,
                at: _Evaluation | None) -> _Evaluation:
    """``at`` when the caller holds the evaluation of ``values``, else a new one."""
    if at is None:
        return _Evaluation(mesh, values, config.metric)
    assert at.values is values, "the evaluation belongs to another field"
    return at


def energy(mesh: Mesh, values: np.ndarray, config: SolverConfig, *,
           at: _Evaluation | None = None) -> float:
    """Area functional sum_T area_T * density_T.

    The Lorentzian functional is concave and maximized by the solution;
    the Euclidean one is convex and minimized.  ``at``, the evaluation of
    this very ``values`` array when the caller holds one, is read instead
    of recomputing.
    """
    ev = _evaluation(mesh, values, config, at)
    return _dot(mesh.areas, ev.density)


def residual(mesh: Mesh, values: np.ndarray, config: SolverConfig, *,
             at: _Evaluation | None = None) -> np.ndarray:
    """Weak-form residual at the free (interior) vertices.

    Component for vertex i is sum_T area_T grad(phi_i) . sigma(grad v):
    the ``p1_divergence`` of the flux, which ``forms.circulations`` also
    computes.  ``at`` as in ``energy``.
    """
    ev = _evaluation(mesh, values, config, at)
    dens = ev.density
    div = p1_divergence(mesh, ev.gx / dens, ev.gy / dens)
    return div[mesh.interior_vertices]


def residual_norm(mesh: Mesh, values: np.ndarray, config: SolverConfig) -> float:
    """Euclidean residual norm scaled by the total mesh area."""
    return _area_norm(mesh, residual(mesh, values, config))


def _area_norm(mesh: Mesh, r: np.ndarray) -> float:
    return _norm(r) / mesh.total_area


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed without BLAS (module docstring)."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def tangent_matrix(mesh: Mesh, values: np.ndarray, config: SolverConfig, *,
                   at: _Evaluation | None = None) -> csr_matrix:
    """Sparse symmetric Newton matrix K_ij = sum_T area_T grad(phi_i) . D . grad(phi_j).

    D = c1 I + c2 g g^T is the flux Jacobian at the triangle gradient g,
    with c1 = 1 / density and c2 = +-c1 / density^2 (Lorentz +, Euclid -);
    it is positive definite in both metrics while the field is admissible,
    so K restricted to the free vertices is SPD; that free-vertex block is
    returned.  The entries of the corner pair opposite each corner are
    summed per edge by one ``bincount``; each diagonal entry is minus its
    row's off-diagonal sum, since the P1 basis gradients of a triangle sum
    to zero.  The pattern is the mesh's assembly plan: it keeps structural
    zeros and sorts columns within each row.  ``at`` as in ``energy``.
    """
    ev = _evaluation(mesh, values, config, at)
    dens = ev.density
    c1 = mesh.areas / dens  # c1 and c2 times the triangle area
    c2 = c1 / (dens * dens)
    if config.metric == "euclid":
        c2 = -c2
    bx, by = mesh.basis_columns
    bg = bx * ev.gx + by * ev.gy
    pair = np.empty((mesh.triangle_count, 3))
    for k in range(3):
        # corners (k + 1, k + 2) of the edge opposite corner k
        a, b = (k + 1) % 3, (k + 2) % 3
        pair[:, k] = c1 * (bx[a] * bx[b] + by[a] * by[b]) + c2 * bg[a] * bg[b]
    edge = np.bincount(mesh.triangle_edges.ravel(), weights=pair.ravel(),
                       minlength=len(mesh.edges))
    lo, hi = mesh.edges.T
    n = mesh.vertex_count
    diag = -(np.bincount(lo, weights=edge, minlength=n)
             + np.bincount(hi, weights=edge, minlength=n))
    return _plan(mesh).free_block(np.concatenate([diag, edge, edge]))


# ----------------------------------------------------------------------
# assembly plan and multigrid preconditioner
# ----------------------------------------------------------------------


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of row indices listed in nondecreasing order."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])


def _csr(data, indices, indptr, shape) -> csr_matrix:
    # scipy.sparse is imported on first use: it costs a fifth of a second,
    # which processes that only read, write and integrate fields never pay
    from scipy.sparse import csr_matrix
    return csr_matrix((data, indices, indptr), shape=shape)


class _AssemblyPlan:
    """The free-vertex P1 sparsity of one mesh, built on first use.

    Of the P1 entries, listed as the V diagonal values, then the E edge
    values for (lo, hi), then the same for (hi, lo), ``order`` gathers the
    free-free ones in the CSR order of the free-vertex block's pattern
    (``indptr``, ``indices``), columns sorted within each row.  The
    matrices built from the plan share its index arrays, which are
    therefore read-only.  ``tentatives`` holds the multigrid aggregates
    once the first V-cycle on the mesh has chosen them.
    """

    def __init__(self, mesh: Mesh):
        n = mesh.vertex_count
        lo, hi = mesh.edges.T
        free = mesh.interior_vertices
        renumber = np.full(n, -1, dtype=np.int64)
        renumber[free] = np.arange(len(free))
        rows = renumber[np.concatenate([np.arange(n), lo, hi])]
        cols = renumber[np.concatenate([np.arange(n), hi, lo])]
        index = np.int32 if len(rows) < 2**31 else np.int64
        keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        # unique keys in long presorted runs, which timsort merges fastest
        order = keep[np.argsort(rows[keep] * n + cols[keep], kind="stable")]
        self.order = order.astype(index)
        self.indptr = _indptr(rows[order], len(free)).astype(index)
        self.indices = cols[order].astype(index)
        for arr in (self.order, self.indptr, self.indices):
            arr.setflags(write=False)
        self.tentatives = None

    def free_block(self, entries: np.ndarray) -> csr_matrix:
        """Free-vertex block of the matrix with these P1 entries."""
        n = len(self.indptr) - 1
        return _csr(entries[self.order], self.indices, self.indptr, (n, n))


def _plan(mesh: Mesh) -> _AssemblyPlan:
    # kept in the instance dict, as functools.cached_property keeps the
    # mesh's own derived arrays (Mesh is a frozen dataclass)
    plan = mesh.__dict__.get("_assembly_plan")
    if plan is None:
        plan = mesh.__dict__["_assembly_plan"] = _AssemblyPlan(mesh)
    return plan


def _jacobi_scale(a: csr_matrix) -> np.ndarray:
    """Damped Jacobi weights omega / a_ii with omega safely below 2 / rho(D^-1 A).

    The Gershgorin bound max_i sum_j |a_ij| / a_ii caps rho(D^-1 A), so the
    smoother contracts in the energy norm of any SPD matrix.
    """
    d = a.diagonal()
    if not np.all(d > 0.0):
        raise NonConvergenceError("operator is not positive definite", 1.0)
    rowsum = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
    return (JACOBI_WEIGHT / float(np.max(rowsum / d))) / d


def _aggregates(a: csr_matrix, theta: float) -> np.ndarray:
    """Aggregate number of each row of ``a`` from its strength graph.

    Roots are a maximal set of rows at least three strong links apart: a
    maximal independent set of the squared graph (Bell, Dalton & Olson,
    SIAM J. Sci. Comput. 34 (2012) C123-C152), grown in rounds where an
    undecided row whose fixed hashed priority beats every undecided row
    within two links becomes a root.  Each root's strong neighbours join
    it, then the remaining rows join a strongly linked aggregate; a row
    left over (possible only if rounding made the graph asymmetric) gets
    an aggregate of its own.

    One-link reductions run over a (width, n) table of each row's strong
    links padded with the row itself, or by ``reduceat`` where a hub row
    would make the table more than twice the links.
    """
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    d = a.diagonal()
    strong = np.abs(a.data) >= theta * np.sqrt(d[rows] * d[a.indices])
    rows = rows[strong]
    cols = a.indices[strong]
    start = _indptr(rows, n)[:-1]
    width = int(np.diff(start, append=len(rows)).max(initial=0))
    table = None
    if width * n <= 2 * len(rows):
        table = np.tile(np.arange(n), (width, 1))  # pad: the row's self-link
        table[np.arange(len(rows)) - start[rows], rows] = cols

    def two_links(reduce, values):
        # every row links to itself, so the rows within two links of i are
        # those within one link of a row within one link of i
        for _ in range(2):
            values = (reduce.reduceat(values[cols], start) if table is None
                      else reduce.reduce(values[table], axis=0))
        return values

    # odd multiplier: distinct priorities for n < 2**32, no random state
    priority = np.arange(n, dtype=np.int64) * 2654435761 % (1 << 32)
    state = np.zeros(n, dtype=np.int8)  # 0 undecided, 1 root, -1 not a root
    while True:
        open_ = state == 0
        if not open_.any():
            break
        best = two_links(np.maximum, np.where(open_, priority, -1))
        root = open_ & (best == priority)
        reached = two_links(np.logical_or, root)
        state[root] = 1
        state[open_ & reached & ~root] = -1
    agg = np.full(n, -1, dtype=np.int64)
    roots = np.flatnonzero(state == 1)
    agg[roots] = np.arange(len(roots))
    for _ in range(2):
        link = (agg[rows] < 0) & (agg[cols] >= 0)
        joiner, first = np.unique(rows[link], return_index=True)
        agg[joiner] = agg[cols[link][first]]
    left = np.flatnonzero(agg < 0)
    agg[left] = len(roots) + np.arange(len(left))
    return agg


def _tentative(a: csr_matrix):
    """Piecewise-constant prolongator of an aggregation of ``a``, or None.

    Strength STRENGTH_THETA is tried first and 0 when that coarsens by
    less than STALL_FRACTION; None when even that leaves the size as it is.
    """
    n = a.shape[0]
    for theta in (STRENGTH_THETA, 0.0):
        agg = _aggregates(a, theta)
        coarse = int(agg.max()) + 1
        if coarse <= STALL_FRACTION * n:
            break
    if coarse == n:
        return None
    return _csr(np.ones(n), agg, np.arange(n + 1), (n, coarse))


def _dense_inverse(a: np.ndarray) -> np.ndarray:
    """Symmetric (generalized) inverse of a dense positive semidefinite matrix.

    One symmetric sweep (Goodnight, Amer. Statist. 33 (1979) 149-158):
    sweeping pivot k of S, d = S[k, k], subtracts S[:, k] S[k] / d from S,
    then sets S[k] = S[:, k] = S[k] / d and S[k, k] = -1 / d.  Pivots go
    largest remaining (Schur complement) diagonal first; those at or below
    COARSE_RCOND times the largest diagonal entry of ``a`` are dropped, and
    their rows and columns zeroed.  Each update is a row's outer product
    with itself and each swept row is copied to its column, so Z, the kept
    part of -S, is symmetric even for an ``a`` symmetric only to rounding.
    Z inverts the kept principal block; A Z A = A up to the dropped Schur
    complement.  No BLAS call: its threads would spin after it.
    """
    s = a.copy()
    diagonal = s.diagonal()  # a view: follows the sweep
    tol = COARSE_RCOND * float(diagonal.max())
    swept = np.zeros(len(a), dtype=bool)
    for _ in range(len(a)):
        k = int(np.argmax(diagonal))  # swept entries are negative
        pivot = float(diagonal[k])
        if not pivot > tol:
            break
        root = s[k] / math.sqrt(pivot)
        s -= np.multiply.outer(root, root)
        s[k] = s[:, k] = root / math.sqrt(pivot)
        s[k, k] = -1.0 / pivot
        swept[k] = True
    return np.where(np.multiply.outer(swept, swept), -s, 0.0)


class _VCycle:
    """Symmetric V(1,1) smoothed-aggregation cycle for one SPD matrix.

    Built from the matrix itself and piecewise-constant prolongators T:
    each level smooths its prolongator, P = (I - S A) T with the damped
    Jacobi weights S, and passes the Galerkin product P^T A P down.  Without
    ``tentatives`` the aggregates are chosen here from the matrix, level
    by level, and kept in ``self.tentatives``.  The last level is inverted
    by the symmetric sweep of ``_dense_inverse`` when it has at most
    COARSE_SIZE rows, and smoothed once otherwise.  No dense matrix product
    is made: the sparse ones run in scipy's own loops, the sweep in numpy's.
    Calling the cycle maps a residual r to z; the map is symmetric and
    positive definite.
    """

    def __init__(self, matrix: csr_matrix, tentatives=None):
        choose = tentatives is None
        self.tentatives = [] if choose else tentatives
        self.levels = []
        a = matrix
        while True:
            scale = _jacobi_scale(a)
            if choose and a.shape[0] > COARSE_SIZE:
                t = _tentative(a)
                if t is not None:
                    self.tentatives.append(t)
            if len(self.levels) == len(self.tentatives):
                break
            t = self.tentatives[len(self.levels)]
            at = a @ t
            at.data *= np.repeat(scale, np.diff(at.indptr))
            p = (t - at).tocsr()
            r = p.T.tocsr()
            self.levels.append((a, scale, p, r))
            a = r @ (a @ p)
        if a.shape[0] <= COARSE_SIZE:
            self.bottom = _dense_inverse(a.toarray())
        else:
            n = a.shape[0]
            self.bottom = _csr(scale, np.arange(n), np.arange(n + 1), (n, n))

    def refreshed(self, matrix: csr_matrix | None) -> _VCycle:
        """This cycle with its finest level on ``matrix`` and its Jacobi weights.

        The smoothed prolongator, the coarser levels and the bottom inverse
        are kept.  The result is symmetric positive definite for any SPD
        ``matrix``: its smoother comes from the matrix it is applied to, and
        the kept coarse correction is SPD.  With ``matrix`` None the copy
        holds no finest matrix and only serves to be refreshed again.
        Needs at least one level.
        """
        cycle = copy.copy(self)
        _, _, p, r = self.levels[0]
        scale = None if matrix is None else _jacobi_scale(matrix)
        cycle.levels = [(matrix, scale, p, r)] + self.levels[1:]
        return cycle

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        return self._cycle(0, residual)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.bottom @ b
        a, scale, p, r = self.levels[level]
        x = scale * b
        x += p @ self._cycle(level + 1, r @ (b - a @ x))
        x += scale * (b - a @ x)
        return x


def cg_solve(operator, rhs: np.ndarray, linear_tol: float, preconditioner,
             max_iter: int | None = None):
    """Preconditioned conjugate gradients for an SPD operator.

    ``preconditioner`` maps a residual r to z, approximately the operator's
    inverse applied to r, and must be symmetric positive definite.  The
    operator is used only through ``@``.

    Deterministic: fixed starting point (zero), fixed update order.  Stops
    when ||r|| <= linear_tol * ||b||; raises NonConvergenceError carrying
    the achieved relative residual if the iteration cap (10 n + 100 by
    default) is hit, or if p.Ap <= 0 or r.z <= 0 reveals an operator or
    preconditioner that is not positive definite.  Returns (x, matvecs,
    achieved): the solution, the operator products used and the relative
    residual ||r|| / ||b|| reached.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    bnorm = _norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    if max_iter is None:
        max_iter = 10 * n + 100
    x = np.zeros(n)
    r = rhs.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = _dot(r, z)
    for matvecs in range(1, max_iter + 1):
        if rz <= 0.0:
            raise NonConvergenceError(
                "preconditioner is not positive definite", _norm(r) / bnorm)
        ap = operator @ p
        pap = _dot(p, ap)
        if pap <= 0.0:
            raise NonConvergenceError(
                "operator is not positive definite", _norm(r) / bnorm)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = _norm(r)
        if rnorm <= linear_tol * bnorm:
            return x, matvecs, rnorm / bnorm
        z = preconditioner(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError("iteration cap reached", _norm(r) / bnorm)


# ----------------------------------------------------------------------
# nonlinear solve
# ----------------------------------------------------------------------


def _harmonic_extension(mesh: Mesh, bc: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Solve the Laplace equation with the given constrained values.

    The right-hand side is minus the weak divergence of the gradient of the
    constrained data extended by zero.  Solved to LINEAR_TOL, so affine
    data comes back exact; with a zero right-hand side (zero data) the
    constrained data is returned at once, without a matrix or a V-cycle.
    """
    free = mesh.interior_vertices
    fixed = mesh.constrained_vertices
    out = np.zeros(mesh.vertex_count)
    out[fixed] = bc[fixed]
    gx, gy = p1_gradient(mesh, out).T
    rhs = -p1_divergence(mesh, gx, gy)[free]
    if not rhs.any():
        return out
    k = tangent_matrix(mesh, np.zeros(mesh.vertex_count),
                       replace(config, metric="euclid"))
    out[free], _, _ = cg_solve(k, rhs, LINEAR_TOL, _vcycle(_plan(mesh), k))
    return out


def _vcycle(plan: _AssemblyPlan, matrix: csr_matrix) -> _VCycle:
    """V-cycle on the mesh's aggregates; the first one on a mesh chooses them."""
    vcycle = _VCycle(matrix, plan.tentatives)
    plan.tentatives = vcycle.tentatives
    return vcycle


def _matvec_rate(matvecs: int, achieved: float) -> float:
    """PCG matvecs per decade of relative residual, at least LAG_MIN_DECADES."""
    decades = -math.log10(achieved) if achieved > 0.0 else math.inf
    return matvecs / max(LAG_MIN_DECADES, decades)


def _forcing_term(res: float, previous: float | None, eta: float,
                  config: SolverConfig) -> float:
    """Relative linear tolerance of the next Newton system.

    Eisenstat & Walker (1996) choice 2 with its safeguard: FORCING_MAX at
    the first step, then gamma (res / previous)^2, kept at least
    gamma eta^2 when that is above FORCING_SAFEGUARD (``eta`` is the last
    forcing term) and capped at FORCING_MAX.  The floor 0.5 residual_tol /
    res stops the last step from solving past the nonlinear tolerance
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
    6.3); LINEAR_TOL is the absolute floor.
    """
    if previous is None:
        eta = FORCING_MAX
    else:
        kept = FORCING_GAMMA * eta * eta
        eta = FORCING_GAMMA * (res / previous) ** 2
        if kept > FORCING_SAFEGUARD:
            eta = max(eta, kept)
        eta = min(eta, FORCING_MAX)
    return max(eta, 0.5 * config.residual_tol / res, LINEAR_TOL)


def _spacelike_initial_guess(mesh: Mesh, bc: np.ndarray,
                             config: SolverConfig) -> _Evaluation | None:
    """Harmonic extension, pulled toward a constant until safely spacelike.

    The interior offset from the mean constrained value is scaled by the
    largest ladder factor keeping per-triangle |grad v| <= 1 - 10 SIGMA_MIN.
    Returns the evaluation of the guess, which is the Newton start, or None
    when no scaling achieves that, which the caller reports as
    non-convergence (the constrained data itself is too steep).
    """
    guess = _Evaluation(mesh, _harmonic_extension(mesh, bc, config),
                        config.metric)
    limit = 1.0 - INITIAL_MARGIN_FACTOR * SIGMA_MIN
    if guess.max_norm <= limit:
        return guess
    fixed = mesh.constrained_vertices
    free = mesh.interior_vertices
    base = np.zeros(mesh.vertex_count)
    base[fixed] = bc[fixed]
    base[free] = float(np.mean(bc[fixed]))
    offset = guess.values - base  # zero at constrained vertices
    t = 1.0
    while t > 1e-6:
        candidate = _Evaluation(mesh, base + t * offset, config.metric)
        if candidate.max_norm <= limit:
            return candidate
        t *= 0.95
    candidate = _Evaluation(mesh, base, config.metric)
    if candidate.max_norm <= limit:
        return candidate
    return None


def solve(mesh: Mesh, boundary_values: np.ndarray,
          config: SolverConfig | None = None):
    """Damped Newton iteration for the surface equation.

    Parameters
    ----------
    boundary_values : (V,) array; only entries at dirichlet and artificial
        vertices are read, and they must be finite; interior entries are
        ignored.
    config : SolverConfig; defaults to the Lorentzian metric.

    Returns
    -------
    (values, report) : the vertex field and its SolveReport.  Non-convergence
    is reported, not raised: ``report.converged`` is False and the partial
    field is returned, so callers can still serialize the outcome.

    Each Newton system is solved to the relative tolerance of
    ``_forcing_term``, with the V-cycle built or lagged as the module
    docstring describes.  A step is accepted when the candidate stays
    strictly spacelike (Lorentz metric only) and the residual norm
    satisfies the sufficient-decrease test; the step is halved otherwise.
    Convergence is declared only on the area-scaled residual norm,
    recomputed at each accepted iterate.
    """
    if config is None:
        config = SolverConfig()
    bc = _check_field(mesh, boundary_values, mesh.constrained_vertices)
    if len(mesh.interior_vertices) == 0:
        raise ValueError("mesh has no free vertices")

    def report_failure(ev, reason, steps=()):
        try:
            res = _area_norm(mesh, residual(mesh, ev.values, config, at=ev))
            area = energy(mesh, ev.values, config, at=ev)
        except SpacelikeError:
            res = area = float("nan")
        return ev.values, SolveReport(
            iterations=max(len(steps) - 1, 0),
            residual=res,
            margin=1.0 - ev.max_norm,
            energy=area,
            converged=False,
            reason=reason,
            steps=list(steps),
        )

    if config.metric == "lorentz":
        ev = _spacelike_initial_guess(mesh, bc, config)
        if ev is None:
            fallback = np.zeros(mesh.vertex_count)
            fallback[mesh.constrained_vertices] = bc[mesh.constrained_vertices]
            fallback[mesh.interior_vertices] = float(
                np.mean(bc[mesh.constrained_vertices])
            )
            return report_failure(_Evaluation(mesh, fallback, config.metric),
                                  "no spacelike initial guess")
    else:
        ev = _Evaluation(mesh, _harmonic_extension(mesh, bc, config),
                         config.metric)

    free = mesh.interior_vertices
    limit = 1.0 - SIGMA_MIN
    r = residual(mesh, ev.values, config, at=ev)
    res = _area_norm(mesh, r)
    nan = float("nan")
    steps = [NewtonStep(res, nan, 0, nan, 0.0, 0, "none",
                        energy(mesh, ev.values, config, at=ev),
                        1.0 - ev.max_norm)]
    previous, eta = None, FORCING_MAX
    lagged, built_rate = None, 0.0  # cycle the next system refreshes
    while res > config.residual_tol:
        if len(steps) > config.max_newton:
            return report_failure(ev, "max_newton exceeded", steps)
        eta = _forcing_term(res, previous, eta, config)
        k = tangent_matrix(mesh, ev.values, config, at=ev)
        built = lagged is None
        cycle = _vcycle(_plan(mesh), k) if built else lagged.refreshed(k)
        try:
            direction, matvecs, achieved = cg_solve(k, -r, eta, cycle)
        except NonConvergenceError as exc:
            return report_failure(ev, f"linear solve failed: {exc}", steps)
        rate = _matvec_rate(matvecs, achieved)
        if built:
            built_rate = rate
        keep = bool(cycle.levels) and (
            built or rate <= LAG_RATE_FACTOR * built_rate)
        # the matrix, and a cycle not kept, are freed before the next
        # system is assembled
        lagged = cycle.refreshed(None) if keep else None
        del k, cycle
        step, backtracks = 1.0, 0
        target = None
        while step >= LINE_SEARCH_FLOOR:
            candidate = ev.values.copy()
            candidate[free] += step * direction
            trial = _Evaluation(mesh, candidate, config.metric)
            if config.metric != "lorentz" or trial.max_norm < limit:
                r = residual(mesh, candidate, config, at=trial)
                new_res = _area_norm(mesh, r)
                if new_res <= (1.0 - SUFFICIENT_DECREASE * step) * res:
                    target = (trial, new_res)
                    break
            step *= BACKTRACK_FACTOR
            backtracks += 1
        if target is None:
            return report_failure(ev, "line search stagnation", steps)
        previous = res
        ev, res = target
        steps.append(NewtonStep(res, eta, matvecs, achieved, step, backtracks,
                                "built" if built else "lagged",
                                energy(mesh, ev.values, config, at=ev),
                                1.0 - ev.max_norm))

    report = SolveReport(
        iterations=len(steps) - 1,
        residual=res,
        margin=steps[-1].margin,
        energy=steps[-1].energy,
        converged=True,
        steps=steps,
    )
    return ev.values, report


def gradient_margin(mesh: Mesh, values: np.ndarray, triangles=None) -> float:
    """Measured spacelike margin 1 - max_T |grad v| over a triangle subset.

    ``triangles`` defaults to all of them; an empty subset is an error.
    """
    values = _check_field(mesh, values)
    g = p1_gradient(mesh, values)
    if triangles is not None:
        triangles = np.asarray(triangles, dtype=np.int64)
        if len(triangles) == 0:
            raise ValueError("empty triangle subset")
        g = g[triangles]
    return float(1.0 - np.sqrt(np.sum(g * g, axis=-1).max()))


# ----------------------------------------------------------------------
# field serialization
# ----------------------------------------------------------------------

FIELD_HEADER = "vertex,x,y,value"


def save_field(mesh: Mesh, values: np.ndarray, path) -> None:
    """CSV rows vertex,x,y,value with full-precision floats."""
    values = _check_field(mesh, values)
    write_csv(path, FIELD_HEADER, [
        np.arange(mesh.vertex_count),
        mesh.vertices[:, 0],
        mesh.vertices[:, 1],
        values,
    ])


def save_trace(reports, path) -> None:
    """CSV of the Newton steps of the given solves, numbered from 1 in ``solve``."""
    rows = [(number, index, *astuple(row))
            for number, report in enumerate(reports, start=1)
            for index, row in enumerate(report.steps)]
    write_csv(path, TRACE_HEADER, [np.array(c) for c in zip(*rows)])


def load_field(mesh: Mesh, path) -> np.ndarray:
    """Read a field CSV and verify it matches the mesh coordinates."""
    data = read_csv(path, FIELD_HEADER)
    if len(data) != mesh.vertex_count:
        raise ValueError("field file does not match the mesh size")
    if not np.array_equal(data[:, 0], np.arange(mesh.vertex_count)):
        raise ValueError("field file vertex ids are not 0, 1, ... in order")
    coords = data[:, 1:3]
    scale = max(1.0, float(np.abs(mesh.vertices).max()))
    if np.abs(coords - mesh.vertices).max() > 1e-9 * scale:
        raise ValueError("field coordinates do not match the mesh")
    return data[:, 3].copy()
