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
mesh gets, on first use, an assembly plan: the P1 sparsity pattern, the
order that gathers diagonal and edge values into it, the free-vertex block
inside it, and the aggregates of the multigrid hierarchy.  In the
Lorentzian metric every iterate is kept strictly spacelike: per-triangle
|grad v| never reaches 1 - SIGMA_MIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
COARSE_RCOND = 1e-13      # coarse eigenvalues below this fraction of the largest are dropped


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


@dataclass
class SolveReport:
    """Outcome of one solve; serialized as a flat key=value record."""

    iterations: int
    residual: float
    margin: float
    energy: float
    converged: bool
    reason: str = ""
    energy_history: list = field(default_factory=list)

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
    """(T, 2) constant gradient of the piecewise-linear interpolant."""
    values = _check_field(mesh, values)
    vals = values[mesh.triangles]
    return np.einsum("ti,tid->td", vals, mesh.basis_gradients)


def _check_field(mesh: Mesh, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.vertex_count,):
        raise ValueError("field length does not match the mesh")
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")
    return values


def _density(g: np.ndarray, metric: str) -> np.ndarray:
    """Area density sqrt(1 -+ |g|^2) per triangle; guards the light cone.

    The flux is sigma(g) = g / density.  In the Lorentz metric the density
    raises SpacelikeError once some |g| reaches 1 - SIGMA_MIN.
    """
    if metric == "lorentz":
        return _spacelike_density(g, SIGMA_MIN)
    return np.sqrt(1.0 + np.sum(g * g, axis=-1))


def energy(mesh: Mesh, values: np.ndarray, config: SolverConfig) -> float:
    """Area functional sum_T area_T * density_T.

    The Lorentzian functional is concave and maximized by the solution;
    the Euclidean one is convex and minimized.
    """
    g = p1_gradient(mesh, values)
    dens = _density(g, config.metric)
    return float(np.dot(mesh.areas, dens))


def _assemble_residual(mesh: Mesh, values: np.ndarray, config: SolverConfig) -> np.ndarray:
    g = p1_gradient(mesh, values)
    dens = _density(g, config.metric)
    weighted = mesh.areas[:, None] * (g / dens[:, None])
    local = np.einsum("tid,td->ti", mesh.basis_gradients, weighted)
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.vertex_count)


def residual(mesh: Mesh, values: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Weak-form residual at the free (interior) vertices.

    Component for vertex i is sum_T area_T grad(phi_i) . sigma(grad v).
    """
    values = _check_field(mesh, values)
    return _assemble_residual(mesh, values, config)[mesh.interior_vertices]


def residual_norm(mesh: Mesh, values: np.ndarray, config: SolverConfig) -> float:
    """Euclidean residual norm scaled by the total mesh area."""
    r = residual(mesh, values, config)
    return float(np.linalg.norm(r) / mesh.total_area)


def tangent_matrix(mesh: Mesh, values: np.ndarray, config: SolverConfig,
                   full: bool = False) -> csr_matrix:
    """Sparse symmetric Newton matrix K_ij = sum_T area_T grad(phi_i) . D . grad(phi_j).

    D = c1 I + c2 g g^T is the flux Jacobian at the triangle gradient g,
    with c1 = 1 / density and c2 = +-c1 / density^2 (Lorentz +, Euclid -);
    it is positive definite in both metrics while the field is admissible,
    so K restricted to the free vertices is SPD.  Returns the free-vertex
    block unless ``full`` is set.  The entries of the corner pair opposite
    each corner are summed per edge by one ``bincount``; each diagonal
    entry is minus its row's off-diagonal sum, since the P1 basis gradients
    of a triangle sum to zero.  The pattern is the mesh's assembly plan: it
    keeps structural zeros and sorts columns within each row.
    """
    values = _check_field(mesh, values)
    g = p1_gradient(mesh, values)
    dens = _density(g, config.metric)
    c1 = mesh.areas / dens  # c1 and c2 times the triangle area
    c2 = c1 / (dens * dens)
    if config.metric == "euclid":
        c2 = -c2
    basis = mesh.basis_gradients
    bx, by = basis[..., 0], basis[..., 1]
    bg = np.einsum("tid,td->ti", basis, g)
    # corners (k + 1, k + 2) of the edge opposite corner k
    nxt, prv = [1, 2, 0], [2, 0, 1]
    pair = (c1[:, None] * (bx[:, nxt] * bx[:, prv] + by[:, nxt] * by[:, prv])
            + c2[:, None] * bg[:, nxt] * bg[:, prv])
    plan = _plan(mesh)
    edge = np.bincount(mesh.triangle_edges.ravel(), weights=pair.ravel(),
                       minlength=len(mesh.edges))
    lo, hi = mesh.edges.T
    n = mesh.vertex_count
    diag = -(np.bincount(lo, weights=edge, minlength=n)
             + np.bincount(hi, weights=edge, minlength=n))
    data = np.concatenate([diag, edge, edge])[plan.order]
    if full:
        return _csr(data, plan.indices, plan.indptr, (n, n))
    return plan.free_block(data)


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
    """The P1 sparsity of one mesh, built on first use.

    The full-vertex CSR pattern (``indptr``, ``indices``) holds each
    vertex's diagonal entry and both directions of each edge, columns
    sorted within each row.  Its entries, listed as the V diagonal values,
    then the E edge values for (lo, hi), then the same for (hi, lo), come
    in CSR order when gathered by ``order``; ``free_pos`` lists the places
    of the free-free block, row by row.  The matrices built from the plan
    share its index arrays, which are therefore read-only.  ``tentatives``
    holds the multigrid aggregates once the first V-cycle on the mesh has
    chosen them.
    """

    def __init__(self, mesh: Mesh):
        n = mesh.vertex_count
        lo, hi = mesh.edges.T
        rows = np.concatenate([np.arange(n), lo, hi])
        cols = np.concatenate([np.arange(n), hi, lo])
        index = np.int32 if len(rows) < 2**31 else np.int64
        order = np.argsort(rows * n + cols)
        rows, cols = rows[order], cols[order]
        free = mesh.interior_vertices
        renumber = np.full(n, -1, dtype=np.int64)
        renumber[free] = np.arange(len(free))
        keep = (renumber[rows] >= 0) & (renumber[cols] >= 0)
        self.order = order.astype(index)
        self.indptr = _indptr(rows, n).astype(index)
        self.indices = cols.astype(index)
        self.free_pos = np.flatnonzero(keep).astype(index)
        self.free_indptr = _indptr(renumber[rows[keep]], len(free)).astype(index)
        self.free_indices = renumber[cols[keep]].astype(index)
        for arr in (self.order, self.indptr, self.indices, self.free_pos,
                    self.free_indptr, self.free_indices):
            arr.setflags(write=False)
        self.tentatives = None

    def free_block(self, data: np.ndarray) -> csr_matrix:
        """Free-vertex block of the full-pattern matrix with these entries."""
        n = len(self.free_indptr) - 1
        return _csr(data[self.free_pos], self.free_indices, self.free_indptr,
                    (n, n))


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
    maximal independent set of the squared graph, grown in rounds where an
    undecided row whose fixed hashed priority beats every undecided row
    within two links becomes a root.  Each root's strong neighbours join
    it, then the remaining rows join a strongly linked aggregate; a row
    left over (possible only if rounding made the graph asymmetric) gets
    an aggregate of its own.
    """
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    d = a.diagonal()
    strong = np.abs(a.data) >= theta * np.sqrt(d[rows] * d[a.indices])
    rows = rows[strong]
    cols = a.indices[strong]
    s = _csr(np.ones(len(cols)), cols, _indptr(rows, n), (n, n))
    s2 = s @ s
    # odd multiplier: distinct priorities for n < 2**32, no random state
    priority = np.arange(n, dtype=np.int64) * 2654435761 % (1 << 32)
    state = np.zeros(n, dtype=np.int8)  # 0 undecided, 1 root, -1 not a root
    near, start = s2.indices, s2.indptr[:-1]
    while True:
        open_ = state == 0
        if not open_.any():
            break
        best = np.maximum.reduceat(np.where(open_[near], priority[near], -1),
                                   start)
        root = open_ & (best == priority)
        reached = np.logical_or.reduceat(root[near], start)
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


class _VCycle:
    """Symmetric V(1,1) smoothed-aggregation cycle for one SPD matrix.

    Built from the matrix itself and piecewise-constant prolongators T:
    each level smooths its prolongator, P = (I - S A) T with the damped
    Jacobi weights S, and passes the Galerkin product P^T A P down.  Without
    ``tentatives`` the aggregates are chosen here from the matrix, level
    by level, and kept in ``self.tentatives``.  The last level is inverted
    densely (its positive eigenpairs) when it has at most COARSE_SIZE rows,
    and smoothed once otherwise.  Calling the cycle maps a residual r to z;
    the map is symmetric and positive definite.
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
            lam, q = np.linalg.eigh(a.toarray())
            keep = lam > COARSE_RCOND * lam[-1]
            inv = (q[:, keep] / lam[keep]) @ q[:, keep].T
            self.bottom = 0.5 * (inv + inv.T)
        else:
            n = a.shape[0]
            self.bottom = _csr(scale, np.arange(n), np.arange(n + 1), (n, n))

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


def cg_solve(operator, rhs: np.ndarray, linear_tol: float,
             max_iter: int | None = None, preconditioner=None) -> np.ndarray:
    """Preconditioned conjugate gradients for an SPD operator.

    ``preconditioner`` maps a residual r to z, approximately the operator's
    inverse applied to r, and must be symmetric positive definite; without
    it z is r scaled by the operator's diagonal when that is positive
    (Jacobi), else r itself.  The operator is used only through ``@``, and
    through ``diagonal()`` when no preconditioner is given.

    Deterministic: fixed starting point (zero), fixed update order.  Stops
    when ||r|| <= linear_tol * ||b||; raises NonConvergenceError carrying
    the achieved relative residual if the iteration cap is hit, or if
    p.Ap <= 0 or r.z <= 0 reveals an operator or preconditioner that is
    not positive definite.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = 10 * n + 100
    if preconditioner is None:
        diag = None
        if hasattr(operator, "diagonal"):
            d = np.asarray(operator.diagonal(), dtype=float)
            if np.all(d > 0):
                diag = d
        preconditioner = (lambda r: r / diag) if diag is not None \
            else (lambda r: r)
    x = np.zeros(n)
    r = rhs.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if rz <= 0.0:
            raise NonConvergenceError(
                "preconditioner is not positive definite",
                np.linalg.norm(r) / bnorm)
        ap = operator @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NonConvergenceError(
                "operator is not positive definite", np.linalg.norm(r) / bnorm
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= linear_tol * bnorm:
            return x
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError("iteration cap reached", np.linalg.norm(r) / bnorm)


# ----------------------------------------------------------------------
# nonlinear solve
# ----------------------------------------------------------------------


def _max_gradient_norm(mesh: Mesh, values: np.ndarray) -> float:
    g = p1_gradient(mesh, values)
    return float(np.sqrt(np.sum(g * g, axis=-1).max()))


def _harmonic_extension(mesh: Mesh, bc: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Solve the Laplace equation with the given constrained values.

    Solved to LINEAR_TOL, so affine data comes back exact; with a zero
    right-hand side (zero data) the constrained data is returned at once,
    without a V-cycle.
    """
    laplace_cfg = replace(config, metric="euclid")
    zero = np.zeros(mesh.vertex_count)
    k_full = tangent_matrix(mesh, zero, laplace_cfg, full=True)
    free = mesh.interior_vertices
    fixed = mesh.constrained_vertices
    out = np.zeros(mesh.vertex_count)
    out[fixed] = bc[fixed]
    rhs = -(k_full @ out)[free]  # out is zero at the free vertices
    if not rhs.any():
        return out
    plan = _plan(mesh)
    k = plan.free_block(k_full.data)
    out[free] = cg_solve(k, rhs, LINEAR_TOL,
                         preconditioner=_vcycle(plan, k))
    return out


def _vcycle(plan: _AssemblyPlan, matrix: csr_matrix) -> _VCycle:
    """V-cycle on the mesh's aggregates; the first one on a mesh chooses them."""
    vcycle = _VCycle(matrix, plan.tentatives)
    plan.tentatives = vcycle.tentatives
    return vcycle


def _newton_direction(mesh: Mesh, values: np.ndarray, config: SolverConfig,
                      forcing: float):
    """Inexact Newton step at the free vertices, by multigrid-preconditioned CG.

    The linear residual is brought below ``forcing`` times the nonlinear
    one.  The matrix and its V-cycle are released on return, before the
    next step assembles its own.
    """
    k = tangent_matrix(mesh, values, config)
    rhs = -residual(mesh, values, config)
    return cg_solve(k, rhs, forcing, preconditioner=_vcycle(_plan(mesh), k))


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


def _spacelike_initial_guess(mesh: Mesh, bc: np.ndarray, config: SolverConfig):
    """Harmonic extension, pulled toward a constant until safely spacelike.

    The interior offset from the mean constrained value is scaled by the
    largest ladder factor keeping per-triangle |grad v| <= 1 - 10 SIGMA_MIN.
    Returns None when no scaling achieves that, which the caller reports as
    non-convergence (the constrained data itself is too steep).
    """
    guess = _harmonic_extension(mesh, bc, config)
    limit = 1.0 - INITIAL_MARGIN_FACTOR * SIGMA_MIN
    if _max_gradient_norm(mesh, guess) <= limit:
        return guess
    fixed = mesh.constrained_vertices
    free = mesh.interior_vertices
    base = np.zeros(mesh.vertex_count)
    base[fixed] = bc[fixed]
    base[free] = float(np.mean(bc[fixed]))
    offset = guess - base  # zero at constrained vertices
    t = 1.0
    while t > 1e-6:
        candidate = base + t * offset
        if _max_gradient_norm(mesh, candidate) <= limit:
            return candidate
        t *= 0.95
    candidate = base
    if _max_gradient_norm(mesh, candidate) <= limit:
        return candidate
    return None


def solve(mesh: Mesh, boundary_values: np.ndarray,
          config: SolverConfig | None = None):
    """Damped Newton iteration for the surface equation.

    Parameters
    ----------
    boundary_values : (V,) array; only entries at dirichlet and artificial
        vertices are read, interior entries are ignored.
    config : SolverConfig; defaults to the Lorentzian metric.

    Returns
    -------
    (values, report) : the vertex field and its SolveReport.  Non-convergence
    is reported, not raised: ``report.converged`` is False and the partial
    field is returned, so callers can still serialize the outcome.

    Each Newton system is solved to the relative tolerance of
    ``_forcing_term``.  A step is accepted when the candidate stays
    strictly spacelike (Lorentz metric only) and the residual norm
    satisfies the sufficient-decrease test; the step is halved otherwise.
    Convergence is declared only on the area-scaled residual norm,
    recomputed at each accepted iterate.
    """
    if config is None:
        config = SolverConfig()
    bc = _check_field(mesh, boundary_values)
    if len(mesh.interior_vertices) == 0:
        raise ValueError("mesh has no free vertices")

    def report_failure(values, reason, iterations):
        res = _try_residual_norm(mesh, values, config)
        return values, SolveReport(
            iterations=iterations,
            residual=res if res is not None else float("nan"),
            margin=1.0 - _max_gradient_norm(mesh, values),
            energy=_try_energy(mesh, values, config),
            converged=False,
            reason=reason,
        )

    if config.metric == "lorentz":
        values = _spacelike_initial_guess(mesh, bc, config)
        if values is None:
            fallback = np.zeros(mesh.vertex_count)
            fallback[mesh.constrained_vertices] = bc[mesh.constrained_vertices]
            fallback[mesh.interior_vertices] = float(
                np.mean(bc[mesh.constrained_vertices])
            )
            return report_failure(fallback, "no spacelike initial guess", 0)
    else:
        values = _harmonic_extension(mesh, bc, config)

    free = mesh.interior_vertices
    limit = 1.0 - SIGMA_MIN
    history = [energy(mesh, values, config)]
    res = residual_norm(mesh, values, config)
    previous, eta = None, FORCING_MAX
    iterations = 0
    while res > config.residual_tol:
        if iterations >= config.max_newton:
            _, rep = report_failure(values, "max_newton exceeded", iterations)
            rep.energy_history = history
            return values, rep
        eta = _forcing_term(res, previous, eta, config)
        try:
            direction = _newton_direction(mesh, values, config, eta)
        except NonConvergenceError as exc:
            _, rep = report_failure(values, f"linear solve failed: {exc}", iterations)
            rep.energy_history = history
            return values, rep
        step = 1.0
        target = None
        while step >= LINE_SEARCH_FLOOR:
            candidate = values.copy()
            candidate[free] += step * direction
            if config.metric == "lorentz" and \
                    _max_gradient_norm(mesh, candidate) >= limit:
                step *= BACKTRACK_FACTOR
                continue
            new_res = residual_norm(mesh, candidate, config)
            if new_res <= (1.0 - SUFFICIENT_DECREASE * step) * res:
                target = (candidate, new_res)
                break
            step *= BACKTRACK_FACTOR
        if target is None:
            _, rep = report_failure(values, "line search stagnation", iterations)
            rep.energy_history = history
            return values, rep
        previous = res
        values, res = target
        iterations += 1
        history.append(energy(mesh, values, config))

    report = SolveReport(
        iterations=iterations,
        residual=res,
        margin=1.0 - _max_gradient_norm(mesh, values),
        energy=history[-1],
        converged=True,
        energy_history=history,
    )
    return values, report


def _try_residual_norm(mesh, values, config):
    try:
        return residual_norm(mesh, values, config)
    except SpacelikeError:
        return None


def _try_energy(mesh, values, config):
    try:
        return energy(mesh, values, config)
    except SpacelikeError:
        return float("nan")


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


def load_field(mesh: Mesh, path) -> np.ndarray:
    """Read a field CSV and verify it matches the mesh coordinates."""
    data = read_csv(path, FIELD_HEADER)
    if len(data) != mesh.vertex_count:
        raise ValueError("field file does not match the mesh size")
    idx = data[:, 0].astype(np.int64)
    if not np.array_equal(idx, np.arange(mesh.vertex_count)):
        raise ValueError("field file has out-of-order vertex ids")
    coords = data[:, 1:3]
    scale = max(1.0, float(np.abs(mesh.vertices).max()))
    if np.abs(coords - mesh.vertices).max() > 1e-9 * scale:
        raise ValueError("field coordinates do not match the mesh")
    return data[:, 3].copy()
