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
free-vertex block, the slots that gather the edge values and the free
diagonal into it, and the aggregates of the multigrid hierarchy.  In the
Lorentzian metric every iterate is kept strictly spacelike: per-triangle
|grad v| never reaches 1 - SIGMA_MIN.  One test, ``lorentz._spacelike``,
decides the light cone, for the area density's guard and for every caller
of ``Evaluation.spacelike``.

The residual, ``forms.circulations`` and the harmonic extension's
right-hand side are one weak divergence, ``p1_divergence``, the
area-weighted transpose of ``p1_gradient``.

Each iterate is evaluated once: its P1 gradient, squared norms, largest
norm and area density are kept in one ``Evaluation``, made for each
line-search candidate and for each rung of the initial guess, and read by
the spacelike test, the residual, the energy, the next Newton matrix and the
reported margins.  The pointwise kernels work on the contiguous (T,)
rows of ``Mesh.basis_columns`` and of the gradient, one block of
``mesh.TRIANGLE_BLOCK`` triangles at a time, and sum over the mesh's
index tables with ``mesh.scatter_add``.  The vector
reductions (PCG inner products and norms, the energy sum and the residual
norm) are summed by numpy's own loop, not by BLAS: a threaded BLAS splits
long dot products over its worker threads, which then spin between calls
through the whole solve, spending CPU time that buys no speed; a CLI
process, which imports maxsurf before numpy, runs one OpenBLAS thread.
The V-cycle build makes no dense BLAS call either: the aggregates reduce
over a padded link table (``reduceat`` for a hub row), its products are
sparse, and the bottom inverse is a symmetric sweep in numpy's loops.

The sparse matrices are the module's own CSR type, ``_CSR``, which
``tangent_matrix`` returns; ``scipy.sparse.csr_matrix((k.data, k.indices,
k.indptr), shape=k.shape)`` converts one.  Its operations call scipy's
compiled CSR kernels (``csr_matvec``, ``csc_matvec``,
``csr_matmat_maxnnz`` and ``csr_matmat``, ``csr_tocsc``,
``csr_minus_csr``, ``csr_diagonal``, ``csr_todense``) as scipy 1.17 calls
them, so every matrix is bit for bit the one scipy makes.  Their module,
``scipy.sparse._sparsetools``, is loaded on first use straight from the
installed scipy's directory (``_sparsetools``): no process imports
``scipy`` or ``scipy.sparse``, which would cost about 20 MiB and a fifth
of a second, most of it scipy's array-API shim.

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

Newton starts from ``_initial_guess``, the harmonic extension of the
constrained data, whose Laplace solve is not oversolved (the point of
Eisenstat & Walker, applied to the start): PCG stops at the relative
residual START_TOL when the surface equation's residual F there exceeds
the most that linear behaviour could make of the Laplace residual by the
factor 1 / START_GAP, and the start is safely spacelike; F is then the
first Newton right-hand side.
Otherwise, as for affine data, whose F is round-off at the exact
extension, the solve goes on to LINEAR_TOL.  ``_harmonic_extension`` has
the rule; the start changes where Newton begins, not what it converges to.
"""

from __future__ import annotations

import copy
import importlib.util
import math
import os
import sys
from dataclasses import astuple, dataclass, fields
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .lorentz import _spacelike, _spacelike_density
from .mesh import Mesh, scatter_add, table_dtype, triangle_blocks
from .records import write_csv, read_csv

METRICS = ("lorentz", "euclid")

SIGMA_MIN = 1e-8          # Lorentz iterates keep |grad v| below 1 - SIGMA_MIN
LINE_SEARCH_FLOOR = 1e-12
BACKTRACK_FACTOR = 0.5    # step shrink factor of the line search
SUFFICIENT_DECREASE = 1e-4  # accept when |F| <= (1 - c step) |F_k|
INITIAL_MARGIN_FACTOR = 10.0  # initial guess obeys |grad| < 1 - 10 SIGMA_MIN

# inexact Newton: Eisenstat-Walker forcing terms, choice 2
FORCING_MAX = 0.5         # the first and the loosest relative linear tolerance
FORCING_GAMMA = 0.9       # eta_k = gamma (|F_k| / |F_k-1|)^2
FORCING_SAFEGUARD = 0.1   # keep gamma eta_k-1^2 when it is above this
LINEAR_TOL = 1e-12        # floor of the forcing terms; full harmonic start

# early stop of the harmonic start (_harmonic_extension).  At 1e-6, |F| of
# the annulus pair and of the rectangle saddles reads 90 to 516 times the
# Laplace residual; at 1e-4 only 1.35 to 6.7, which affine data can reach
START_TOL = 1e-6
# stop when kappa |r_lap| <= START_GAP |F|: the Laplace error moves the
# first Newton system's right-hand side by a tenth of it at most
START_GAP = 0.1

# smoothed-aggregation multigrid
STRENGTH_THETA = 0.1      # strong link: |a_ij| >= theta sqrt(a_ii a_jj)
STALL_FRACTION = 0.5      # coarsening stalls above this size ratio; retry at theta 0
COARSE_SIZE = 300         # levels this small are solved densely
JACOBI_WEIGHT = 4.0 / 3.0  # over the Gershgorin bound of D^-1 A
COARSE_RCOND = 1e-13      # bottom pivots up to this fraction of the largest diagonal are dropped

# lagged hierarchy: rebuild after a lagged system this much slower per decade
LAG_RATE_FACTOR = 2.0
LAG_MIN_DECADES = 1.0     # looser solves count as one decade


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
    no Newton step: its ``forcing``, ``matvecs`` and ``achieved`` are the
    tolerance its harmonic extension's Laplace solve stopped at (START_TOL
    or LINEAR_TOL), that solve's PCG matvecs and the relative Laplace
    residual it reached (nan, 0 and nan for zero data, which needs no
    solve); zero step length and backtracks, and cycle "none".  A start
    that is not safely spacelike still gets its row, with nan residual and
    energy unless it is spacelike at SIGMA_MIN.
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


TRACE_HEADER = ",".join(["solve", "step",
                         *(f.name for f in fields(NewtonStep))])


@dataclass
class SolveReport:
    """Outcome of one solve; serialized as a flat key=value record.

    ``steps`` holds one NewtonStep per iterate, the initial guess first,
    also when that start is not safely spacelike and the solve ends there;
    ``iterations``, ``residual``, ``margin`` and ``energy`` read the last
    row.
    """

    converged: bool
    reason: str
    steps: list

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1

    @property
    def residual(self) -> float:
        return self.steps[-1].residual

    @property
    def margin(self) -> float:
        return self.steps[-1].margin

    @property
    def energy(self) -> float:
        return self.steps[-1].energy

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

    Computed corner by corner from the rows of ``mesh.basis_columns``,
    summed over corners 0, 1, 2 from the left, one block of triangles
    (``mesh.triangle_blocks``) at a time, so the result is the transposed
    view of a (2, T) array of contiguous x and y rows and the temporaries
    are one block long.
    """
    values = _check_field(mesh, values)
    basis = mesh.basis_columns
    g = np.empty((2, mesh.triangle_count))
    for rows in triangle_blocks(mesh.triangle_count):
        corners = mesh.triangles[rows]
        for i in range(3):
            vi = values[corners[:, i]]
            for row, b in zip(g[:, rows], basis[:, i, rows]):
                if i == 0:
                    np.multiply(vi, b, out=row)
                else:
                    row += vi * b
    return g.T


def p1_divergence(mesh: Mesh, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """(V,) weak divergence of the piecewise-constant field (fx, fy).

    Component i is sum_T area_T grad(phi_i) . f_T, the area-weighted
    transpose of ``p1_gradient``.  Computed from the (T,) rows of
    ``mesh.basis_columns`` one block of triangles at a time and summed per
    vertex by ``mesh.scatter_add``, triangle by triangle and corners 0, 1,
    2 within each triangle: the order of one ``bincount`` over all corners.
    """
    return _divergence(mesh, fx, fy)


def _divergence(mesh: Mesh, fx: np.ndarray, fy: np.ndarray,
                density: np.ndarray | None = None) -> np.ndarray:
    """``p1_divergence`` of (fx, fy), or of the flux (fx, fy) / ``density``.

    Each block makes its own area-weighted rows, f area_T or, in place,
    (f / density) area_T.
    """
    bx, by = mesh.basis_columns
    out = np.zeros(mesh.vertex_count)
    for rows in triangle_blocks(mesh.triangle_count):
        wx, wy = fx[rows], fy[rows]
        if density is None:
            wx, wy = wx * mesh.areas[rows], wy * mesh.areas[rows]
        else:
            wx, wy = wx / density[rows], wy / density[rows]
            wx *= mesh.areas[rows]
            wy *= mesh.areas[rows]
        local = np.empty((len(wx), 3))
        for i in range(3):
            np.multiply(bx[i, rows], wx, out=local[:, i])
            local[:, i] += by[i, rows] * wy
        scatter_add(out, mesh.triangles[rows].ravel(), local.ravel())
    return out


def _check_field(mesh: Mesh, values, where=slice(None)) -> np.ndarray:
    """``values`` as a (V,) float array, finite at the vertices ``where``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.vertex_count,):
        raise ValueError("field length does not match the mesh")
    if not np.isfinite(values[where]).all():
        raise ValueError("field contains non-finite values")
    return values


class Evaluation:
    """The pointwise P1 data of one field, computed once.

    ``gx`` and ``gy`` are the (T,) rows of the triangle gradients, ``norm2``
    their squared norms and ``max_norm`` the largest norm.  ``density`` is
    the area density sqrt(1 -+ |g|^2) in ``metric``, made on first use; the
    flux is sigma(g) = g / density.  ``spacelike(margin)`` is the light-cone
    test, every |g| below 1 - margin, and always true in the Euclidean
    metric; in the Lorentz metric ``density`` raises SpacelikeError where
    ``spacelike(SIGMA_MIN)`` is false.  It is the one input of
    ``residual``, ``energy`` and ``tangent_matrix``: ``solve`` builds one
    per line-search candidate and hands it to all three.

    ``norm2`` is formed on each read and not kept: the density reads it
    once, and the light-cone test reads only its largest entry other than
    nan, which decides ``_spacelike`` as the whole array does.
    """

    def __init__(self, mesh: Mesh, values: np.ndarray, metric: str):
        self.values = values
        self.gx, self.gy = p1_gradient(mesh, values).T
        norm2 = self.norm2
        self.max_norm = float(np.sqrt(norm2.max()))
        self._top = np.fmax.reduce(norm2)
        self.metric = metric

    @property
    def norm2(self) -> np.ndarray:
        return self.gx * self.gx + self.gy * self.gy

    def spacelike(self, margin: float) -> bool:
        return self.metric == "euclid" or _spacelike(self._top, margin)

    @cached_property
    def density(self) -> np.ndarray:
        if self.metric == "lorentz":
            return _spacelike_density(self.norm2, SIGMA_MIN)
        return np.sqrt(1.0 + self.norm2)


def energy(mesh: Mesh, ev: Evaluation) -> float:
    """Area functional sum_T area_T * density_T of the evaluated field.

    The Lorentzian functional is concave and maximized by the solution;
    the Euclidean one is convex and minimized.
    """
    return _dot(mesh.areas, ev.density)


def residual(mesh: Mesh, ev: Evaluation) -> np.ndarray:
    """Weak-form residual of the evaluated field at the free vertices.

    Component for vertex i is sum_T area_T grad(phi_i) . sigma(grad v):
    the ``p1_divergence`` of the flux, which ``forms.circulations`` also
    computes.
    """
    return _divergence(mesh, ev.gx, ev.gy, ev.density)[mesh.interior_vertices]


def residual_norm(mesh: Mesh, r: np.ndarray) -> float:
    """Euclidean norm of a ``residual`` vector over the total mesh area."""
    return _norm(r) / mesh.total_area


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed without BLAS (module docstring)."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def tangent_matrix(mesh: Mesh, ev: Evaluation | None) -> _CSR:
    """Sparse symmetric Newton matrix K_ij = sum_T area_T grad(phi_i) . D . grad(phi_j).

    D = c1 I + c2 g g^T is the flux Jacobian at the evaluated triangle
    gradient g, with c1 = 1 / density and c2 = +-c1 / density^2 (Lorentz +,
    Euclid -); it is positive definite in both metrics while the field is
    admissible, so K restricted to the free vertices is SPD; that
    free-vertex block is returned.  With ``ev`` None, D = I: the Laplace
    matrix, which is the Euclidean matrix of a zero field, made without
    evaluating one.  The entries of the corner pair opposite each corner
    are summed per edge by ``mesh.scatter_add``, one block of triangles at
    a time; each diagonal entry is minus its row's off-diagonal sum, since
    the P1 basis gradients of a triangle sum to zero.  The pattern is the
    mesh's assembly plan: it keeps structural zeros and sorts columns
    within each row.  The block is the package's CSR type, ``_CSR``;
    ``scipy.sparse.csr_matrix((k.data, k.indices, k.indptr),
    shape=k.shape)`` converts it.
    """
    edge = _edge_values(mesh, ev)
    n = mesh.vertex_count
    lo, hi = mesh.edges.T
    diag = -(scatter_add(np.zeros(n), lo, edge)
             + scatter_add(np.zeros(n), hi, edge))
    return _plan(mesh).free_block(edge, diag[mesh.interior_vertices])


def _edge_values(mesh: Mesh, ev: Evaluation | None) -> np.ndarray:
    """(E,) off-diagonal Newton matrix entry of each mesh edge.

    Each block of triangles writes its corner pairs into (B, 3) rows and
    adds them per edge; with ``ev`` None the c2 term, zero for a zero
    gradient, is left out and c1 is the area.
    """
    bx, by = mesh.basis_columns
    out = np.zeros(len(mesh.edges))
    for rows in triangle_blocks(mesh.triangle_count):
        # c1 and c2 times the triangle area
        if ev is None:
            c1 = mesh.areas[rows]
        else:
            dens = ev.density[rows]
            c1 = mesh.areas[rows] / dens
            c2 = dens * dens
            np.divide(c1, c2, out=c2)
            if ev.metric == "euclid":
                np.negative(c2, out=c2)
            bg = bx[:, rows] * ev.gx[rows]
            bg += by[:, rows] * ev.gy[rows]
        pair = np.empty((len(c1), 3))
        for k in range(3):
            # corners (k + 1, k + 2) of the edge opposite corner k:
            # c1 (bx_a bx_b + by_a by_b) + c2 bg_a bg_b
            a, b = (k + 1) % 3, (k + 2) % 3
            u = bx[a, rows] * bx[b, rows]
            u += by[a, rows] * by[b, rows]
            u *= c1
            if ev is not None:
                w = c2 * bg[a]
                w *= bg[b]
                u += w
            pair[:, k] = u
        scatter_add(out, mesh.triangle_edges[rows].ravel(), pair.ravel())
    return out


# ----------------------------------------------------------------------
# assembly plan and multigrid preconditioner
# ----------------------------------------------------------------------


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of row indices listed in nondecreasing order."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])


@cache
def _sparsetools():
    """scipy's compiled CSR kernels, the module ``scipy.sparse._sparsetools``.

    Loaded on first use, once, straight from the installed scipy's
    directory by an extension loader, so that neither ``scipy`` nor
    ``scipy.sparse`` is imported: that import, mostly scipy's array-API
    shim, costs about 20 MiB and a fifth of a second.  A host program
    that has already imported the module keeps its copy.
    """
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        stem = os.path.join(scipy_dirs[0], "sparse", "_sparsetools")
        for suffix in EXTENSION_SUFFIXES:
            path = stem + suffix
            if os.path.exists(path):
                break
        loader = ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_INT32 = np.iinfo(np.int32)


def _index_dtype(arrays, maxval=None, contents=False):
    """int32 or int64 for CSR index arrays, as scipy's ``get_index_dtype``.

    int64 when ``maxval`` exceeds the int32 range or an array's dtype does
    not cast to int32, unless ``contents`` is set and the array is empty or
    holds integers within that range.
    """
    if maxval is not None and maxval > _INT32.max:
        return np.int64
    for arr in arrays:
        if not np.can_cast(arr.dtype, np.int32) and not (
                contents and (arr.size == 0 or (
                    arr.dtype.kind in "iu"
                    and _INT32.min <= arr.min() and arr.max() <= _INT32.max))):
            return np.int64
    return np.int32


def _csr(data, indices, indptr, shape) -> _CSR:
    """The CSR matrix of these arrays, as scipy's ``csr_matrix((data,
    indices, indptr), shape=shape)`` makes it.

    The index arrays are cast to ``_index_dtype`` of their contents and the
    shape (copies only where the dtype changes), and ``indices`` and
    ``data`` are trimmed to the matrix's nnz, ``indptr[-1]``: a view that
    is copied when it keeps less than half of its base (scipy's ``prune``).
    The matrix's operations call scipy's compiled CSR kernels, which
    ``_sparsetools`` loads without importing ``scipy`` (see ``_CSR``).
    """
    index = _index_dtype((indices, indptr),
                         None if 0 in shape else max(shape), contents=True)
    indptr = np.asarray(indptr, dtype=index)
    nnz = int(indptr[-1])
    return _CSR(_pruned(np.asarray(data)[:nnz]),
                _pruned(np.asarray(indices, dtype=index)[:nnz]), indptr,
                shape)


def _pruned(a: np.ndarray) -> np.ndarray:
    return a.copy() if a.base is not None and a.size < a.base.size // 2 else a


class _CSR:
    """A sparse matrix in compressed sparse row form, on scipy's kernels.

    ``data``, ``indices``, ``indptr`` and ``shape`` are those of scipy's
    ``csr_matrix``, which converts it:
    ``scipy.sparse.csr_matrix((k.data, k.indices, k.indptr), shape=k.shape)``.
    Each operation calls the kernel of ``_sparsetools`` that scipy 1.17
    calls for it, with the same index dtypes, zero-filled outputs where
    the kernel accumulates, and results made by ``_csr``, so every array
    is the one scipy would make, bit for bit: ``@`` a vector
    (``csr_matvec``) or a ``_CSR`` (``csr_matmat_maxnnz``, then
    ``csr_matmat``), ``-`` (``csr_minus_csr``), ``diagonal()``
    (``csr_diagonal``) and ``toarray()`` (``csr_todense``).  ``T`` is the
    transpose as a view of the same arrays (``_Transposed``).  Made only
    by ``_csr``.
    """

    def __init__(self, data, indices, indptr, shape):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = shape

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def T(self) -> _Transposed:
        return _Transposed(self)

    def __matmul__(self, other):
        m, n = self.shape
        if isinstance(other, _CSR):
            return self._matmat(other)
        if other.shape != (n,):
            raise ValueError(f"matmul: shape {other.shape} against {self.shape}")
        out = np.zeros(m, dtype=np.result_type(self.data.dtype, other.dtype))
        _sparsetools().csr_matvec(m, n, self.indptr, self.indices, self.data,
                                  other, out)
        return out

    def _matmat(self, other: _CSR) -> _CSR:
        (m, k), (k2, n) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"matmul: shape {other.shape} against {self.shape}")
        kernels = _sparsetools()
        arrays = (self.indptr, self.indices, other.indptr, other.indices)
        # maxnnz bounds the product's nnz; csr_matmat drops exact zeros
        maxnnz = kernels.csr_matmat_maxnnz(
            m, n, *_cast(arrays, _index_dtype(arrays)))
        return self._combined(other, kernels.csr_matmat, maxnnz, (m, n))

    def __sub__(self, other: _CSR) -> _CSR:
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        return self._combined(other, _sparsetools().csr_minus_csr,
                              self.nnz + other.nnz, self.shape)

    def _combined(self, other: _CSR, kernel, maxnnz: int, shape) -> _CSR:
        """``kernel`` of this matrix and ``other`` into at most ``maxnnz``
        entries: both matrices' indices in the dtype that fits ``maxnnz``."""
        arrays = (self.indptr, self.indices, other.indptr, other.indices)
        index = _index_dtype(arrays, maxnnz)
        indptr = np.empty(shape[0] + 1, dtype=index)
        indices = np.empty(maxnnz, dtype=index)
        data = np.empty(maxnnz, dtype=np.result_type(self.data.dtype,
                                                     other.data.dtype))
        a_ptr, a_ind, b_ptr, b_ind = _cast(arrays, index)
        kernel(*shape, a_ptr, a_ind, self.data, b_ptr, b_ind, other.data,
               indptr, indices, data)
        return _csr(data, indices, indptr, shape)

    def diagonal(self) -> np.ndarray:
        m, n = self.shape
        out = np.empty(min(m, n), dtype=self.data.dtype)
        _sparsetools().csr_diagonal(0, m, n, self.indptr, self.indices,
                                    self.data, out)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        _sparsetools().csr_todense(*self.shape, self.indptr, self.indices,
                                   self.data, out)
        return out


def _cast(arrays, index):
    return [a.astype(index, copy=False) for a in arrays]


class _Transposed:
    """The transpose of a ``_CSR`` matrix: its arrays read as compressed
    columns, as scipy's CSC view ``p.T`` reads them.  ``@`` a vector runs
    ``csc_matvec``; ``tocsr()`` makes the transpose's own CSR arrays with
    ``csr_tocsc``."""

    def __init__(self, matrix: _CSR):
        self.matrix = matrix

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        a = self.matrix
        m, n = a.shape
        if other.shape != (m,):
            raise ValueError(f"matmul: shape {other.shape} against the "
                             f"transpose of {a.shape}")
        out = np.zeros(n, dtype=np.result_type(a.data.dtype, other.dtype))
        _sparsetools().csc_matvec(n, m, a.indptr, a.indices, a.data, other,
                                  out)
        return out

    def tocsr(self) -> _CSR:
        a = self.matrix
        m, n = a.shape
        index = _index_dtype((a.indptr, a.indices), max(a.nnz, m))
        indptr = np.empty(n + 1, dtype=index)
        indices = np.empty(a.nnz, dtype=index)
        data = np.empty(a.nnz, dtype=a.data.dtype)
        _sparsetools().csr_tocsc(m, n, *_cast((a.indptr, a.indices), index),
                                 a.data, indptr, indices, data)
        return _csr(data, indices, indptr, (n, m))


class _AssemblyPlan:
    """The free-vertex P1 sparsity of one mesh, built on first use.

    The free-vertex block's pattern (``indptr``, ``indices``, columns
    sorted within each row) has a slot for each free vertex's diagonal and
    two for each edge between free vertices.  ``edge_slots`` holds each
    slot's mesh edge (0 at the diagonal slots) and ``diagonal_slots`` the
    diagonal slot of each free row, so the block's data is gathered
    straight from the edge values, then the diagonal is put in place.  The
    matrices built from the plan share its index arrays, which are
    therefore read-only.  ``tentatives`` holds the multigrid aggregates
    once the first V-cycle on the mesh has chosen them.

    The pattern is built from the mesh's edge table, sorted by (lo, hi)
    row: row r lists the edges (hi, lo) with hi = r, which a stable sort
    by hi puts in row order, then the diagonal, then the edges (lo, hi)
    with lo = r, already in row order.  Every slot is placed by its row's
    offsets, in int32 where the counts allow.
    """

    def __init__(self, mesh: Mesh):
        n = mesh.vertex_count
        lo, hi = mesh.edges.T
        free = len(mesh.interior_vertices)
        index = table_dtype(n, len(lo))
        renumber = np.full(n, -1, dtype=index)
        renumber[mesh.interior_vertices] = np.arange(free, dtype=index)
        # the edges between free vertices, as (row, col) above the diagonal
        both = renumber[lo] >= 0
        both &= renumber[hi] >= 0
        # the kept arrays come first, so that the temporaries are freed
        # above them in the heap rather than leave holes below them
        nnz = free + 2 * int(np.count_nonzero(both))
        self.edge_slots = np.zeros(nnz, dtype=index)  # 0 at the diagonal
        self.indices = np.empty(nnz, dtype=index)
        self.indptr = np.empty(free + 1, dtype=index)
        self.diagonal_slots = np.empty(free, dtype=index)
        edge = np.arange(len(lo), dtype=index)[both]
        row = renumber[lo][both]  # nondecreasing
        col = renumber[hi][both]
        del both, renumber
        below = np.bincount(col, minlength=free).astype(index)
        above = np.bincount(row, minlength=free).astype(index)
        # row r holds its edges below the diagonal, its diagonal, then its
        # edges above it; it starts after r diagonal slots and the edge
        # slots of the rows before it
        start = self.indptr[:-1]
        start[:] = np.arange(free, dtype=index)
        start[1:] += np.cumsum(below[:-1] + above[:-1], dtype=index)
        self.indptr[-1] = nnz
        np.add(start, below, out=self.diagonal_slots)
        self.indices[self.diagonal_slots] = np.arange(free, dtype=index)
        # the k-th edge of one side, listed in row order, goes to slot k
        # plus its row's offset: the row's first slot on that side less
        # the number of that side's edges in the rows before
        rank = np.arange(len(edge), dtype=index)
        offset = self.diagonal_slots + 1
        offset -= np.cumsum(above, dtype=index) - above
        slots = offset[row]
        slots += rank
        self.edge_slots[slots] = edge
        self.indices[slots] = col
        del slots
        by_col = np.argsort(col, kind="stable")
        offset = start - (np.cumsum(below, dtype=index) - below)
        slots = offset[col[by_col]]
        slots += rank
        self.edge_slots[slots] = edge[by_col]
        self.indices[slots] = row[by_col]
        for arr in (self.edge_slots, self.diagonal_slots, self.indptr,
                    self.indices):
            arr.setflags(write=False)
        self.tentatives = None

    def free_block(self, edge: np.ndarray, diagonal: np.ndarray) -> _CSR:
        """Free-vertex block of these (E,) edge and free diagonal values."""
        n = len(self.indptr) - 1
        data = edge[self.edge_slots]
        data[self.diagonal_slots] = diagonal
        return _csr(data, self.indices, self.indptr, (n, n))


def _plan(mesh: Mesh) -> _AssemblyPlan:
    # kept in the instance dict, as functools.cached_property keeps the
    # mesh's own derived arrays (Mesh is a frozen dataclass)
    plan = mesh.__dict__.get("_assembly_plan")
    if plan is None:
        plan = mesh.__dict__["_assembly_plan"] = _AssemblyPlan(mesh)
    return plan


def _jacobi_scale(a: _CSR) -> np.ndarray:
    """Damped Jacobi weights omega / a_ii with omega safely below 2 / rho(D^-1 A).

    The Gershgorin bound max_i sum_j |a_ij| / a_ii caps rho(D^-1 A), so the
    smoother contracts in the energy norm of any SPD matrix.
    """
    d = a.diagonal()
    if not np.all(d > 0.0):
        raise NonConvergenceError("operator is not positive definite", 1.0)
    rowsum = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
    return (JACOBI_WEIGHT / float(np.max(rowsum / d))) / d


def _aggregates(a: _CSR, theta: float) -> np.ndarray:
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


def _tentative(a: _CSR):
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
    Jacobi weights S, and passes the Galerkin product P^T A P down; it
    restricts through the transpose view of P, not a copy.  Without
    ``tentatives`` the aggregates are chosen here from the matrix, level
    by level, and kept in ``self.tentatives``.  The last level is inverted
    by the symmetric sweep of ``_dense_inverse`` when it has at most
    COARSE_SIZE rows, and smoothed once otherwise.  No dense matrix product
    is made: the sparse ones are ``_CSR`` operations on scipy's compiled
    kernels, loaded by ``_sparsetools`` without importing ``scipy``
    (``csr_matmat_maxnnz``, ``csr_matmat``, ``csr_minus_csr`` and
    ``csr_tocsc`` in the build, ``csr_matvec`` and ``csc_matvec`` in the
    cycle), and the sweep runs in numpy's loops.
    Calling the cycle maps a residual r to z; the map is symmetric and
    positive definite.
    """

    def __init__(self, matrix: _CSR, tentatives=None):
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
            p = t - at
            del at  # freed before the Galerkin products
            self.levels.append((a, scale, p))
            # a transient CSR restriction keeps the coarse matrix CSR
            a = p.T.tocsr() @ (a @ p)
        if a.shape[0] <= COARSE_SIZE:
            self.bottom = _dense_inverse(a.toarray())
        else:
            n = a.shape[0]
            self.bottom = _csr(scale, np.arange(n), np.arange(n + 1), (n, n))

    def refreshed(self, matrix: _CSR | None) -> _VCycle:
        """This cycle with its finest level on ``matrix`` and its Jacobi weights.

        The smoothed prolongator, the coarser levels and the bottom inverse
        are kept.  The result is symmetric positive definite for any SPD
        ``matrix``: its smoother comes from the matrix it is applied to, and
        the kept coarse correction is SPD.  With ``matrix`` None the copy
        holds no finest matrix and only serves to be refreshed again.
        Needs at least one level.
        """
        cycle = copy.copy(self)
        p = self.levels[0][2]
        scale = None if matrix is None else _jacobi_scale(matrix)
        cycle.levels = [(matrix, scale, p)] + self.levels[1:]
        return cycle

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        return self._cycle(0, residual)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.bottom @ b
        a, scale, p = self.levels[level]
        # x = scale b, then x += p cycle(p^T (b - a x)) and x += scale (b -
        # a x), each residual formed in place in the product's array
        x = scale * b
        r = a @ x
        np.subtract(b, r, out=r)
        coarse = self._cycle(level + 1, p.T @ r)
        del r
        x += p @ coarse
        r = a @ x
        np.subtract(b, r, out=r)
        r *= scale
        x += r
        return x


def cg_solve(operator, rhs: np.ndarray, linear_tol: float, preconditioner,
             early=None):
    """Preconditioned conjugate gradients for an SPD operator.

    ``preconditioner`` maps a residual r to z, approximately the operator's
    inverse applied to r, and must be symmetric positive definite.  The
    operator is used only through ``@``, whose result the iteration then
    owns and updates in place.

    Deterministic: fixed starting point (zero), fixed update order.  Stops
    when ||r|| <= linear_tol * ||b||; raises NonConvergenceError carrying
    the achieved relative residual if the iteration cap, 10 n + 100
    products, is hit, or if p.Ap <= 0 or r.z <= 0 reveals an operator or
    preconditioner that is not positive definite.  Returns (x, matvecs,
    achieved): the solution, the operator products used and the relative
    residual ||r|| / ||b|| reached.

    ``early``, a pair (tol, accept), offers the first iterate x with
    ||r|| <= tol * ||b|| that does not already meet ``linear_tol`` to
    accept(x, achieved), once: the solve returns that iterate when accept
    is true and goes on to ``linear_tol`` otherwise, as if never asked.
    x is the iteration's own array.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    bnorm = _norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    x = np.zeros(n)
    r = rhs.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = _dot(r, z)
    # between steps only x, r and p are held: ap and z are dropped as soon
    # as they are read, so the preconditioner and ``early`` run beside
    # three vectors
    del z
    for matvecs in range(1, 10 * n + 100 + 1):
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
        ap *= alpha
        r -= ap
        del ap
        rnorm = _norm(r)
        if rnorm <= linear_tol * bnorm:
            return x, matvecs, rnorm / bnorm
        if early is not None and rnorm <= early[0] * bnorm:
            accept, early = early[1], None
            if accept(x, rnorm / bnorm):
                return x, matvecs, rnorm / bnorm
        z = preconditioner(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz  # p = z + beta p, in place
        p += z
        del z
        rz = rz_new
    raise NonConvergenceError("iteration cap reached", _norm(r) / bnorm)


# ----------------------------------------------------------------------
# nonlinear solve
# ----------------------------------------------------------------------


def _harmonic_extension(mesh: Mesh, bc: np.ndarray, config: SolverConfig):
    """The Laplace solution with the given constrained values, evaluated.

    The right-hand side is minus the weak divergence of the gradient of the
    constrained data extended by zero; with a zero right-hand side (zero
    data) the constrained data is returned at once, without a matrix or a
    V-cycle.

    PCG stops at the relative Laplace residual START_TOL when the iterate
    there is a start that Newton cannot tell from the exact extension: it
    is safely spacelike (``Evaluation.spacelike`` at
    INITIAL_MARGIN_FACTOR SIGMA_MIN), and kappa |r_lap| <= START_GAP |F|,
    with r_lap its Laplace residual, F the surface equation's weak residual
    there and kappa the largest eigenvalue of the flux Jacobian D over the
    triangles, (1 - max |g|^2)^-1.5 in the Lorentz metric and 1 in the
    Euclidean one: the most that the linear part of F can amplify the
    Laplace error.  Both residuals are of
    one weak form, so the test is unchanged when mesh and data are scaled
    together.  Otherwise PCG goes on to LINEAR_TOL, as if never stopped,
    so affine and other near-linear data, whose F is of the size of the
    Laplace error, come back exact.  The rule moves only where Newton
    starts, not the field it converges to.

    Returns (ev, r, laplace): the evaluation of the extension, F at it
    when the early stop was taken (None otherwise), and the tolerance, PCG
    matvecs and relative residual of the Laplace solve (nan, 0, nan for
    zero data).
    """
    free = mesh.interior_vertices
    fixed = mesh.constrained_vertices
    out = np.zeros(mesh.vertex_count)
    out[fixed] = bc[fixed]
    # the data's gradient is freed before the Laplace solve
    rhs = -p1_divergence(mesh, *p1_gradient(mesh, out).T)[free]
    if not rhs.any():
        nan = float("nan")
        return Evaluation(mesh, out, config.metric), None, (nan, 0, nan)
    bnorm = _norm(rhs)
    start = []

    def accept(x, achieved):
        # out is the start either way: the full solve rewrites its free part
        out[free] = x
        ev = Evaluation(mesh, out, config.metric)
        if not ev.spacelike(INITIAL_MARGIN_FACTOR * SIGMA_MIN):
            return False
        kappa = (1.0 if config.metric == "euclid"
                 else (1.0 - ev.max_norm ** 2) ** -1.5)
        r = residual(mesh, ev)
        if not kappa * achieved * bnorm <= START_GAP * _norm(r):
            return False
        start.extend((ev, r))
        return True

    k = tangent_matrix(mesh, None)  # the Laplace matrix
    x, matvecs, achieved = cg_solve(k, rhs, LINEAR_TOL,
                                    _vcycle(_plan(mesh), k),
                                    early=(START_TOL, accept))
    if start:
        return start[0], start[1], (START_TOL, matvecs, achieved)
    del k  # freed before the start is evaluated
    out[free] = x
    return (Evaluation(mesh, out, config.metric), None,
            (LINEAR_TOL, matvecs, achieved))


def _vcycle(plan: _AssemblyPlan, matrix: _CSR) -> _VCycle:
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


def _initial_guess(mesh: Mesh, bc: np.ndarray, config: SolverConfig):
    """Harmonic extension, pulled toward a constant until safely spacelike.

    The Newton start of both metrics.  Safely spacelike is ``spacelike`` at
    INITIAL_MARGIN_FACTOR SIGMA_MIN, true at once in the Euclidean metric.
    The interior offset from the mean constrained value is scaled by the
    largest ladder factor 0.95^k that passes, or else by 0, the last rung.
    Returns ``_harmonic_extension``'s (ev, r, laplace) with the evaluation
    of the guess as ev (and r None for a rung); ``solve`` reports a last
    rung that fails as non-convergence (the data itself is too steep).
    """
    guess, r, laplace = _harmonic_extension(mesh, bc, config)
    if guess.spacelike(INITIAL_MARGIN_FACTOR * SIGMA_MIN):
        return guess, r, laplace
    fixed = mesh.constrained_vertices
    free = mesh.interior_vertices
    base = np.zeros(mesh.vertex_count)
    base[fixed] = bc[fixed]
    base[free] = float(np.mean(bc[fixed]))
    offset = guess.values - base  # zero at constrained vertices
    t = 1.0
    while t > 1e-6:
        candidate = Evaluation(mesh, base + t * offset, config.metric)
        if candidate.spacelike(INITIAL_MARGIN_FACTOR * SIGMA_MIN):
            return candidate, None, laplace
        t *= 0.95
    return Evaluation(mesh, base, config.metric), None, laplace


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
    field is returned, so callers can still serialize the outcome.  Every
    exit returns the last iterate with the step rows so far, which the
    report summarizes.

    Newton starts from ``_initial_guess``, whose step-0 row is made first;
    a start that is not safely spacelike ends the solve there with reason
    "no spacelike initial guess".
    Each Newton system is solved to the relative tolerance of
    ``_forcing_term``, with the V-cycle built or lagged as the module
    docstring describes.  A step is accepted when the candidate is
    spacelike at SIGMA_MIN and the residual norm satisfies the
    sufficient-decrease test; the step is halved otherwise.
    Convergence is declared only on the area-scaled ``residual_norm``,
    measured at the start and at every candidate inside the light cone.
    """
    if config is None:
        config = SolverConfig()
    bc = _check_field(mesh, boundary_values, mesh.constrained_vertices)
    if len(mesh.interior_vertices) == 0:
        raise ValueError("mesh has no free vertices")

    ev, r, (tol, matvecs, achieved) = _initial_guess(mesh, bc, config)
    started = ev.spacelike(INITIAL_MARGIN_FACTOR * SIGMA_MIN)
    res = area = float("nan")
    if started or ev.spacelike(SIGMA_MIN):
        if r is None:
            r = residual(mesh, ev)
        res = residual_norm(mesh, r)
        area = energy(mesh, ev)
    steps = [NewtonStep(res, tol, matvecs, achieved, 0.0, 0, "none", area,
                        1.0 - ev.max_norm)]
    if not started:
        return ev.values, SolveReport(False, "no spacelike initial guess",
                                      steps)

    free = mesh.interior_vertices
    previous, eta = None, FORCING_MAX
    lagged, built_rate = None, 0.0  # cycle the next system refreshes
    while res > config.residual_tol:
        if len(steps) > config.max_newton:
            return ev.values, SolveReport(False, "max_newton exceeded", steps)
        eta = _forcing_term(res, previous, eta, config)
        k = tangent_matrix(mesh, ev)
        built = lagged is None
        cycle = _vcycle(_plan(mesh), k) if built else lagged.refreshed(k)
        try:
            direction, matvecs, achieved = cg_solve(k, -r, eta, cycle)
        except NonConvergenceError as exc:
            return ev.values, SolveReport(
                False, f"linear solve failed: {exc}", steps)
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
            trial = Evaluation(mesh, candidate, config.metric)
            if trial.spacelike(SIGMA_MIN):
                r = residual(mesh, trial)
                new_res = residual_norm(mesh, r)
                if new_res <= (1.0 - SUFFICIENT_DECREASE * step) * res:
                    target = (trial, new_res)
                    break
            step *= BACKTRACK_FACTOR
            backtracks += 1
        if target is None:
            return ev.values, SolveReport(False, "line search stagnation",
                                          steps)
        previous = res
        ev, res = target
        steps.append(NewtonStep(res, eta, matvecs, achieved, step, backtracks,
                                "built" if built else "lagged",
                                energy(mesh, ev),
                                1.0 - ev.max_norm))

    return ev.values, SolveReport(True, "", steps)


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
    # false for nan as well
    if not np.abs(coords - mesh.vertices).max() <= 1e-9 * scale:
        raise ValueError("field coordinates do not match the mesh")
    return data[:, 3].copy()
