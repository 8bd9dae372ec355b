import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import diags, identity
from scipy.sparse.linalg import spsolve

from maxsurf import (
    ARTIFICIAL,
    Evaluation,
    Mesh,
    NonConvergenceError,
    SolverConfig,
    SpacelikeError,
    build_annulus,
    build_rectangle,
    cg_solve,
    energy,
    load_field,
    p1_divergence,
    p1_gradient,
    residual,
    residual_norm,
    save_field,
    solve,
    tangent_matrix,
)
from maxsurf import solver as solver_module
from maxsurf.lorentz import _spacelike
from maxsurf.solver import (COARSE_SIZE, FIELD_HEADER, FORCING_GAMMA,
                            FORCING_MAX, INITIAL_MARGIN_FACTOR, JACOBI_WEIGHT,
                            LINEAR_TOL, SIGMA_MIN, START_GAP, START_TOL,
                            _AssemblyPlan, _CSR, _forcing_term,
                            _harmonic_extension, _initial_guess, _VCycle)

from conftest import (affine_field, cotan_laplacian, jittered,
                      nan_coordinate_field, scipy_csr, solver_csr,
                      spacelike_field)
from oracles import gradient_margin

LORENTZ = SolverConfig()
EUCLID = SolverConfig(metric="euclid")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(metric="hyperbolic")
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_newton=0)


# ----------------------------------------------------------------------
# P1 gradients
# ----------------------------------------------------------------------


def test_gradient_affine_exact(square4):
    g = p1_gradient(square4, affine_field(square4, 1.0, 0.0))
    np.testing.assert_allclose(g, np.tile([1.0, 0.0], (square4.triangle_count, 1)),
                               rtol=0, atol=1e-14)
    g0 = p1_gradient(square4, np.full(square4.vertex_count, 3.0))
    np.testing.assert_allclose(g0, 0.0, atol=1e-14)


def test_gradient_of_quadratic_near_cell_average():
    m = build_rectangle(1.0, 1.0, 0.5)
    f = m.vertices[:, 0] ** 2
    g = p1_gradient(m, f)
    exact = np.stack([2.0 * m.centroids[:, 0], np.zeros(m.triangle_count)], axis=1)
    assert np.abs(g - exact).max() <= 0.5


def test_field_shape_checked(square4):
    with pytest.raises(ValueError):
        p1_gradient(square4, np.zeros(3))
    with pytest.raises(ValueError):
        p1_gradient(square4, np.full(square4.vertex_count, np.nan))


# ----------------------------------------------------------------------
# residual
# ----------------------------------------------------------------------


def test_residual_zero_for_affine(square4):
    v = affine_field(square4, 0.5, -0.3)
    for cfg in (LORENTZ, EUCLID):
        ev = Evaluation(square4, v, cfg.metric)
        assert np.abs(residual(square4, ev)).max() <= 1e-14


def test_residual_rejects_lightlike(square4):
    v = affine_field(square4, 1.0, 0.0)
    with pytest.raises(SpacelikeError):
        residual(square4, Evaluation(square4, v, "lorentz"))
    # the Euclidean operator has no cone to violate
    ev = Evaluation(square4, v, "euclid")
    assert np.isfinite(residual(square4, ev)).all()


def test_interpolated_catenoid_residual_decays():
    norms = []
    for h in (0.2, 0.1):
        m = build_annulus(1.0, 2.0, h)
        exact = np.arcsinh(np.linalg.norm(m.vertices, axis=1))
        ev = Evaluation(m, exact, "lorentz")
        norms.append(residual_norm(m, residual(m, ev)))
    assert norms[1] <= 0.5 * norms[0]


def test_residual_is_energy_gradient(square4):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(square4.vertex_count)
    v *= 0.5 / np.linalg.norm(p1_gradient(square4, v), axis=1).max()
    step = 1e-6
    for cfg, sign in ((LORENTZ, -1.0), (EUCLID, 1.0)):
        r = residual(square4, Evaluation(square4, v, cfg.metric))
        for slot, i in enumerate(square4.interior_vertices):
            vp, vm = v.copy(), v.copy()
            vp[i] += step
            vm[i] -= step
            fd = (energy(square4, Evaluation(square4, vp, cfg.metric))
                  - energy(square4, Evaluation(square4, vm, cfg.metric))
                  ) / (2 * step)
            assert r[slot] == pytest.approx(sign * fd, rel=1e-5, abs=1e-9)


# ----------------------------------------------------------------------
# tangent operator
# ----------------------------------------------------------------------


def test_tangent_at_zero_is_cotan_laplacian(square4):
    v = np.zeros(square4.vertex_count)
    free = square4.interior_vertices
    k = tangent_matrix(square4, Evaluation(square4, v, "lorentz")).toarray()
    ref = cotan_laplacian(square4)[free][:, free].toarray()
    np.testing.assert_allclose(k, ref, rtol=0, atol=1e-12)


def test_metrics_agree_at_zero_gradient(square4):
    v = np.full(square4.vertex_count, 2.0)
    kl = tangent_matrix(square4, Evaluation(square4, v, "lorentz")).toarray()
    ke = tangent_matrix(square4, Evaluation(square4, v, "euclid")).toarray()
    np.testing.assert_array_equal(kl, ke)


def test_tangent_spd_for_random_admissible(square4):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(square4.vertex_count)
    v *= 0.5 / (1.0 - gradient_margin(square4, v))
    for cfg in (LORENTZ, EUCLID):
        ev = Evaluation(square4, v, cfg.metric)
        k = tangent_matrix(square4, ev).toarray()
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > 0.0


# ----------------------------------------------------------------------
# conjugate gradients
# ----------------------------------------------------------------------


def unpreconditioned(r):
    return r


def test_cg_identity_returns_rhs():
    rhs = np.array([1.0, -2.0, 0.5])
    out, _, _ = cg_solve(np.eye(3), rhs, 1e-12, unpreconditioned)
    np.testing.assert_array_equal(out, rhs)


def test_cg_two_by_two():
    out, _, _ = cg_solve(np.array([[2.0, 1.0], [1.0, 2.0]]),
                         np.array([1.0, 0.0]), 1e-14, unpreconditioned)
    np.testing.assert_allclose(out, [2.0 / 3.0, -1.0 / 3.0], rtol=1e-12)


def test_cg_matches_dense_solver():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((30, 30))
    a = b @ b.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    got, _, _ = cg_solve(a, rhs, 1e-13, unpreconditioned)
    np.testing.assert_allclose(got, np.linalg.solve(a, rhs), rtol=1e-9, atol=1e-12)


def test_cg_rejects_indefinite_operator():
    with pytest.raises(NonConvergenceError, match="positive definite") as err:
        cg_solve(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 1e-12,
                 unpreconditioned)
    assert err.value.achieved > 0.0


def test_cg_iteration_cap():
    # tolerance 0: the recursive residual keeps falling, to 1e-142 of the
    # right-hand side at the cap of 10 n + 100 products, but reaches no
    # exact zero, which would meet it (as it does on ten unknowns or fewer)
    rng = np.random.default_rng(3)
    b = rng.standard_normal((40, 40))
    a = CountingOperator(b @ b.T + 0.1 * np.eye(40))
    with pytest.raises(NonConvergenceError, match="cap") as err:
        cg_solve(a, rng.standard_normal(40), 0.0, unpreconditioned)
    assert a.matvecs == 10 * 40 + 100
    assert err.value.achieved > 0.0


def test_cg_zero_rhs_short_circuits():
    out, matvecs, achieved = cg_solve(np.eye(4), np.zeros(4), 1e-12,
                                      unpreconditioned)
    np.testing.assert_array_equal(out, np.zeros(4))
    assert matvecs == 0 and achieved == 0.0


# ----------------------------------------------------------------------
# multilevel preconditioner
# ----------------------------------------------------------------------


@st.composite
def multilevel_meshes(draw):
    """Rectangles and annuli of 100 to 5,000 free vertices, maybe jittered.

    Above COARSE_SIZE free vertices the V-cycle has coarse levels; below
    it, it is one dense solve.
    """
    h = draw(st.sampled_from([0.05, 0.1]))
    if draw(st.booleans()):
        mesh = build_rectangle(draw(st.integers(12, 45)) * h,
                               draw(st.integers(12, 45)) * h, h)
    else:
        mesh = build_annulus(1.0, 1.0 + draw(st.integers(6, 20)) * h, h)
    if draw(st.booleans()):
        mesh = jittered(mesh, draw(st.integers(0, 2**32 - 1)))
    return mesh


def newton_matrix(mesh, metric, seed):
    ev = Evaluation(mesh, spacelike_field(mesh, seed), metric)
    return tangent_matrix(mesh, ev)


@settings(max_examples=25, deadline=None)
@given(mesh=multilevel_meshes(), metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1))
def test_multilevel_pcg_matches_direct_solve(mesh, metric, seed):
    k = newton_matrix(mesh, metric, seed)
    vcycle = _VCycle(k)
    if k.shape[0] > COARSE_SIZE:
        assert vcycle.levels
    rhs = np.random.default_rng(seed).standard_normal(k.shape[0])
    ref = spsolve(scipy_csr(k), rhs)
    got, _, _ = cg_solve(k, rhs, 1e-14, vcycle)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None)
@given(mesh=multilevel_meshes(), metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1))
def test_vcycle_is_symmetric_positive_definite(mesh, metric, seed):
    k = newton_matrix(mesh, metric, seed)
    vcycle = _VCycle(k)
    rng = np.random.default_rng(seed)
    r1, r2 = rng.standard_normal((2, k.shape[0]))
    z1, z2 = vcycle(r1), vcycle(r2)
    scale = np.linalg.norm(z1) * np.linalg.norm(r2)
    assert abs(z1 @ r2 - r1 @ z2) <= 1e-12 * scale
    assert z1 @ r1 > 0.0
    assert z2 @ r2 > 0.0


@settings(max_examples=25, deadline=None)
@given(mesh=multilevel_meshes(), metric=st.sampled_from(["lorentz", "euclid"]),
       built_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
def test_refreshed_vcycle_is_spd_and_matches_direct_solve(mesh, metric,
                                                            built_seed, seed):
    # coarse levels from one field's Newton matrix, the finest from another's
    vcycle = _VCycle(newton_matrix(mesh, metric, built_seed))
    assume(vcycle.levels)
    k = newton_matrix(mesh, metric, seed)
    # as solve keeps it between systems: without the finest matrix
    kept = vcycle.refreshed(None)
    assert kept.levels[0][:2] == (None, None)
    lagged = kept.refreshed(k)
    assert lagged.levels[0][0] is k
    assert lagged.levels[1:] == vcycle.levels[1:]
    assert lagged.bottom is vcycle.bottom
    rng = np.random.default_rng(seed)
    r1, r2, rhs = rng.standard_normal((3, k.shape[0]))
    z1, z2 = lagged(r1), lagged(r2)
    scale = np.linalg.norm(z1) * np.linalg.norm(r2)
    assert abs(z1 @ r2 - r1 @ z2) <= 1e-12 * scale
    assert z1 @ r1 > 0.0
    assert z2 @ r2 > 0.0
    ref = spsolve(scipy_csr(k), rhs)
    got, _, _ = cg_solve(k, rhs, 1e-14, lagged)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def csr_restricting_cycle(vcycle, b, level=0):
    """``vcycle`` applied to b, restricting through a CSR copy of each p^T,
    as the cycle did before it restricted through the CSC view p.T."""
    if level == len(vcycle.levels):
        return vcycle.bottom @ b
    a, scale, p = vcycle.levels[level]
    x = scale * b
    x += p @ csr_restricting_cycle(vcycle, p.T.tocsr() @ (b - a @ x),
                                   level + 1)
    x += scale * (b - a @ x)
    return x


@pytest.mark.parametrize("case", ["annulus", "square"])
def test_vcycle_restricting_through_the_transpose_view_matches_csr(
        case, monkeypatch):
    if case == "annulus":
        mesh = build_annulus(1.0, 2.0, 0.05)
    else:
        # two coarse levels above a bottom of 9 rows
        monkeypatch.setattr(solver_module, "COARSE_SIZE", 20)
        mesh = build_rectangle(1.0, 1.0, 1.0 / 16)
    rng = np.random.default_rng(6)
    for metric in ("euclid", "lorentz"):
        k = newton_matrix(mesh, metric, 6)
        vcycle = _VCycle(k)
        assert len(vcycle.levels) >= 2
        for r in rng.standard_normal((3, k.shape[0])):
            np.testing.assert_array_equal(vcycle(r),
                                          csr_restricting_cycle(vcycle, r))


@settings(max_examples=15, deadline=None)
@given(mesh=multilevel_meshes(), seed=st.integers(0, 2**32 - 1))
def test_harmonic_extension_matches_sliced_direct_solve(mesh, seed):
    config = SolverConfig(metric="euclid")
    bc = np.random.default_rng(seed).standard_normal(mesh.vertex_count)
    k = tangent_matrix(mesh,
                       Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid"))
    free, fixed = mesh.interior_vertices, mesh.constrained_vertices
    coupling = cotan_laplacian(mesh)[free][:, fixed]
    rhs = -coupling @ bc[fixed]
    ref = spsolve(scipy_csr(k), rhs)
    # the full path: no early stop is offered
    with mock.patch.object(solver_module, "LINEAR_TOL", 1e-14), \
            mock.patch.object(solver_module, "START_TOL", 0.0):
        ev, r, (tol, _, achieved) = _harmonic_extension(mesh, bc, config)
    got = ev.values
    assert r is None and tol == 1e-14 and achieved <= 1e-14
    np.testing.assert_array_equal(got[fixed], bc[fixed])
    assert np.linalg.norm(got[free] - ref) <= 1e-10 * np.linalg.norm(ref)
    # the loose path, when taken: its own Laplace residual bound, and the
    # gap to the surface equation's residual F there (kappa is 1 in Euclid)
    ev, r, (tol, _, achieved) = _harmonic_extension(mesh, bc, config)
    if r is None:
        assert tol == LINEAR_TOL and achieved <= LINEAR_TOL
        return
    got = ev.values
    assert tol == START_TOL and LINEAR_TOL < achieved <= START_TOL
    np.testing.assert_array_equal(got[fixed], bc[fixed])
    lap = np.linalg.norm(rhs - k @ got[free])
    # the recursive residual PCG tests against the true one to rounding
    assert lap == pytest.approx(achieved * np.linalg.norm(rhs), rel=1e-6)
    f = residual(mesh, Evaluation(mesh, got, config.metric))
    np.testing.assert_array_equal(r, f)
    assert achieved * np.linalg.norm(rhs) <= START_GAP * np.linalg.norm(f)


class CountingOperator:
    """Forwards ``@`` only, counting the calls."""

    def __init__(self, operator):
        self.operator = operator
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.operator @ x


def counted_solve(monkeypatch, mesh, bc, config):
    """solve with every PCG operator counted: (field, report, counters)."""
    counted = []
    real_cg = solver_module.cg_solve

    def counting_cg(operator, *args, **kwargs):
        counted.append(CountingOperator(operator))
        return real_cg(counted[-1], *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "cg_solve", counting_cg)
        v, report = solve(mesh, bc, config)
    return v, report, counted


def test_multilevel_matvec_count_is_pinned(monkeypatch):
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    x, y = mesh.vertices.T
    _, report, counted = counted_solve(monkeypatch, mesh, x * x - y * y,
                                       EUCLID)
    assert report.converged
    assert report.iterations == 5
    # outer PCG matvecs: the harmonic start, stopped early, then each
    # inexact Newton step
    assert [c.matvecs for c in counted] == [8, 2, 2, 5, 11, 2]
    assert [row.matvecs for row in report.steps] == [8, 2, 2, 5, 11, 2]
    assert report.steps[0].forcing == START_TOL
    assert [row.cycle for row in report.steps] == \
        ["none", "built", "lagged", "lagged", "lagged", "lagged"]


def newton_matvecs(mesh, bc):
    _, report = solve(mesh, bc, EUCLID)
    assert report.converged
    return sum(row.matvecs for row in report.steps)


@pytest.mark.parametrize("data, lag_only_fails", [
    (lambda x, y: 10.0 * x * y, False),
    (lambda x, y: 2.0 * np.sin(6.0 * x) * np.cosh(2.0 * y), True),
], ids=["10xy", "sin-cosh"])
def test_rebuild_trigger_keeps_lagging_near_rebuilding(data, lag_only_fails,
                                                        monkeypatch):
    # steep Euclidean data, where the Newton matrices drift far from the
    # one the cycle was built on
    mesh = build_rectangle(1.0, 1.0, 1.0 / 64)
    bc = data(*mesh.vertices.T)
    triggered = newton_matvecs(mesh, bc)
    refreshed = _VCycle.refreshed

    def rebuild(cycle, k):
        # a full build on the same aggregates wherever a refresh would be
        return refreshed(cycle, k) if k is None else _VCycle(k, cycle.tentatives)

    with monkeypatch.context() as patch:
        patch.setattr(_VCycle, "refreshed", rebuild)
        rebuilt = newton_matvecs(mesh, bc)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "LAG_RATE_FACTOR", math.inf)
        lag_only = newton_matvecs(mesh, bc)
    assert triggered <= 1.5 * rebuilt
    if lag_only_fails:
        assert lag_only > 3.0 * rebuilt


def test_cycle_without_coarse_levels_is_built_for_every_system():
    mesh = build_rectangle(1.0, 1.0, 1.0 / 16)
    assert len(mesh.interior_vertices) <= COARSE_SIZE
    x, y = mesh.vertices.T
    _, report = solve(mesh, 10.0 * x * y, EUCLID)
    assert report.converged
    assert report.iterations >= 3
    assert [row.cycle for row in report.steps[1:]] == \
        ["built"] * report.iterations


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(solver_module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, name, counting)
    return calls


def test_line_search_residual_is_the_next_right_hand_side(monkeypatch):
    calls = count_calls(monkeypatch, "residual")
    gradients = count_calls(monkeypatch, "p1_gradient")
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    x, y = mesh.vertices.T
    v, report = solve(mesh, 10.0 * x * y, EUCLID)
    assert report.converged
    # the initial guess, then every line-search candidate
    candidates = sum(1 + row.backtracks for row in report.steps[1:])
    assert candidates > report.iterations  # some steps were halved
    assert len(calls) == 1 + candidates
    # one gradient per field: the harmonic extension's data (for the
    # right-hand side), the initial guess and every candidate; the Newton
    # matrices, energies and margins reuse them, and the Laplace matrix
    # evaluates no field
    assert len(gradients) == 2 + candidates
    ev = Evaluation(mesh, v, "euclid")
    assert report.residual == residual_norm(mesh, residual(mesh, ev))
    assert report.steps[-1].residual == report.residual


def test_cg_holds_three_vectors_between_steps():
    # x, r and p; ap and z are dropped once read, so the V-cycle (2.5
    # vectors at its peak here) runs beside three vectors: 5.5 in all,
    # where keeping ap and z and forming z + beta p anew peaked at 8
    mesh = build_rectangle(1.0, 1.0, 1.0 / 128)
    k = tangent_matrix(mesh, None)
    cycle = _VCycle(k)
    n = k.shape[0]
    rhs = np.random.default_rng(2).standard_normal(n)
    cycle(rhs)
    tracemalloc.start()
    x, _, achieved = cg_solve(k, rhs, 1e-10, cycle)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert achieved <= 1e-10
    assert peak <= 6 * 8 * n


@pytest.mark.parametrize("norm2", [
    [0.25, np.nan], [np.nan, np.nan], [np.nan, 1.0], [0.5, np.inf],
    [0.0, (1.0 - SIGMA_MIN) ** 2],
    [0.0, np.nextafter((1.0 - SIGMA_MIN) ** 2, 0.0)],
])
@pytest.mark.parametrize("margin",
                         [SIGMA_MIN, INITIAL_MARGIN_FACTOR * SIGMA_MIN])
def test_spacelike_reads_the_largest_entry_other_than_nan(norm2, margin):
    # Evaluation keeps np.fmax.reduce of |g|^2, not the (T,) array; nan
    # entries fail every comparison, so the verdict is the whole array's
    norm2 = np.array(norm2)
    top = np.fmax.reduce(norm2)
    assert _spacelike(top, margin) == _spacelike(norm2, margin)


def test_evaluation_light_cone_test_skips_nan_gradients(monkeypatch):
    # a nan gradient fails every comparison: the steep triangle still makes
    # the field not spacelike, as _spacelike of the whole array says
    mesh = build_rectangle(1.0, 1.0, 0.5)
    g = np.zeros((mesh.triangle_count, 2))
    g[0] = np.nan
    g[1, 0] = 1.0
    monkeypatch.setattr(solver_module, "p1_gradient", lambda mesh, v: g)
    ev = Evaluation(mesh, np.zeros(mesh.vertex_count), "lorentz")
    assert not _spacelike(ev.norm2, SIGMA_MIN)
    assert not ev.spacelike(SIGMA_MIN)


def test_evaluation_keeps_no_squared_norms():
    mesh = build_rectangle(1.0, 1.0, 0.125)
    x, y = mesh.vertices.T
    ev = Evaluation(mesh, 0.3 * x * y, "lorentz")
    ev.density
    assert "norm2" not in vars(ev)
    assert ev.norm2.tobytes() == (ev.gx * ev.gx + ev.gy * ev.gy).tobytes()
    assert ev.spacelike(SIGMA_MIN) == _spacelike(ev.norm2, SIGMA_MIN)
    assert ev.max_norm == math.sqrt(ev.norm2.max())


def test_cg_full_output_reports_matvecs_and_achieved_residual():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((30, 30))
    a = b @ b.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    counted = CountingOperator(a)
    x, matvecs, achieved = cg_solve(counted, rhs, 1e-6, unpreconditioned)
    assert matvecs == counted.matvecs
    assert achieved <= 1e-6
    # the recursive residual, which agrees with the true one to round-off
    true = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
    assert achieved == pytest.approx(true, rel=1e-6)


# CPU clock ticks of the main thread and of all other threads, summed over
# this process's tasks in /proc; each probe prints those of one window,
# opened once the threads woken by the import and the set-up have idled
TICKS = """
import glob, os, time
import numpy as np
from maxsurf import (Evaluation, build_rectangle, cg_solve, energy,
                     residual, residual_norm, tangent_matrix)
from maxsurf.solver import _VCycle

def cpu_ticks():
    main = other = 0
    for path in glob.glob("/proc/self/task/*/stat"):
        fields = open(path).read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        if int(path.split("/")[-2]) == os.getpid():
            main += ticks
        else:
            other += ticks
    return main, other

def laplace(n):
    mesh = build_rectangle(1.0, 1.0, 1.0 / n)
    zero = Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid")
    return mesh, tangent_matrix(mesh, zero)
"""

# eight Laplace PCG solves and a few energies and residual norms at 16,129
# free vertices, above the length at which OpenBLAS splits a dot product
# (10,000 entries)
KRYLOV_PROBE = TICKS + """
mesh, k = laplace(128)
cycle = _VCycle(k)
rhs = np.random.default_rng(0).standard_normal(k.shape[0])
x, y = mesh.vertices.T
field = 0.3 * x * y
time.sleep(0.5)
main0, other0 = cpu_ticks()
for _ in range(8):
    cg_solve(k, rhs, 1e-12, cycle)
for _ in range(4):
    ev = Evaluation(mesh, field, "lorentz")
    energy(mesh, ev)
    residual_norm(mesh, residual(mesh, ev))
main1, other1 = cpu_ticks()
print(k.shape[0], main1 - main0, other1 - other0)
"""

# V-cycle builds, choosing the aggregates and reusing them, on Laplace
# matrices whose bottom levels have 111 and 299 rows: near the annulus
# benchmark's 109 and at COARSE_SIZE
BUILD_PROBE = TICKS + """
matrices = [laplace(n)[1] for n in (67, 132)]
time.sleep(0.5)
main0, other0 = cpu_ticks()
bottoms = set()
for k in matrices:
    for _ in range(2):
        fresh = _VCycle(k)
        again = _VCycle(k, fresh.tentatives)
        bottoms |= {fresh.bottom.shape[0], again.bottom.shape[0]}
main1, other1 = cpu_ticks()
print(",".join(map(str, sorted(bottoms))), main1 - main0, other1 - other0)
"""


def run_probe(probe):
    src = str(Path(solver_module.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    size, main, other = out.stdout.split()
    # a thread spinning beside the main one would cost as much CPU as it
    assert int(other) <= 0.1 * int(main) + 1, (
        f"other threads used {other} ticks while the main thread used {main}")
    return size


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(),
    reason="per-thread CPU times need /proc/self/task")


@needs_proc
def test_krylov_loop_does_not_wake_blas_threads():
    assert run_probe(KRYLOV_PROBE) == str(127 * 127)


@needs_proc
def test_vcycle_build_does_not_wake_blas_threads():
    assert run_probe(BUILD_PROBE) == "111,299"


# Every ``@`` in the solver, by enclosing function; each operand pair named
# is either sparse (scipy's compiled kernels) or a dense product measured
# not to wake a threaded BLAS's workers
MATMUL_ALLOWED = {
    # the operator's product; the solver passes CSR matrices only
    "cg_solve": 1,
    # a @ t, p.T.tocsr() @ (a @ p): CSR products, the Galerkin coarse
    # operators
    "_VCycle.__init__": 3,
    # p and a are CSR, p.T its CSC view; self.bottom @ b is a gemv of at
    # most COARSE_SIZE rows, which did not wake the worker in the build
    # probe's window
    "_VCycle._cycle": 5,
}
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot"}


def hidden_blas(tree):
    """(matmuls per function, calls that reach BLAS, light-cone tests spelled
    out) in a module's tree.

    A light-cone test spelled out is a comparison that reads ``.max_norm``
    or an ``except SpacelikeError``: the solver asks ``Evaluation.spacelike``.
    """
    matmuls, calls, cone = {}, [], []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        name = ".".join(scope) or "<module>"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            matmuls[name] = matmuls.get(name, 0) + 1
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{m}" for m in modules]
            calls.extend(f"{name}: import {m}" for m in modules
                         if "linalg" in m)
        if isinstance(node, ast.Call):
            text = ast.unparse(node.func)
            if "linalg" in text.split(".") or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in BLAS_NAMES):
                calls.append(f"{name}: {text}")
            # einsum's optimize path contracts through tensordot
            if text.endswith("einsum") and any(
                    k.arg == "optimize" for k in node.keywords):
                calls.append(f"{name}: {text}(optimize=...)")
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "max_norm"
                for sub in ast.walk(node)):
            cone.append(f"{name}: {ast.unparse(node)}")
        if isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "SpacelikeError" in ast.unparse(node.type):
            cone.append(f"{name}: except {ast.unparse(node.type)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return matmuls, calls, cone


def test_solver_source_makes_no_dense_blas_call():
    # a threaded BLAS call leaves its workers spinning for about 0.13 s of
    # CPU; the probes above measure that, this catches it before a run.
    # The same walk keeps the light-cone test spelled once
    source = Path(solver_module.__file__).read_text()
    matmuls, calls, cone = hidden_blas(ast.parse(source))
    assert calls == []
    assert matmuls == MATMUL_ALLOWED
    assert cone == []


def test_hidden_blas_finds_each_kind():
    source = """
import numpy.linalg
from scipy import linalg
def f(a, b):
    a @= b
    return np.linalg.eigh(a), np.dot(a, b), a.dot(b), np.tensordot(a, b), \
        np.einsum("ij,jk->ik", a, b, optimize=True)
class C:
    def g(self, a, b):
        return a @ b @ b
"""
    matmuls, calls, cone = hidden_blas(ast.parse(source))
    assert matmuls == {"f": 1, "C.g": 2}
    assert cone == []
    assert calls == ["<module>: import numpy.linalg",
                     "<module>: import scipy.linalg",
                     "f: np.linalg.eigh", "f: np.dot", "f: a.dot",
                     "f: np.tensordot", "f: np.einsum(optimize=...)"]


def test_hidden_blas_finds_each_spelled_out_cone_test():
    source = """
def f(ev, trial, limit):
    if not ev.max_norm <= limit:
        return trial.max_norm < 1.0 - SIGMA_MIN
    margin = 1.0 - ev.max_norm  # not a comparison
    kappa = (1.0 - ev.max_norm ** 2) ** -1.5
    return ev.spacelike(SIGMA_MIN) and kappa > 0.0
class C:
    def g(self, ev):
        try:
            return ev.density
        except (SpacelikeError, ValueError):
            return max(ev.max_norm, 1.0) >= 1.0
        except lorentz.SpacelikeError:
            pass
        except Exception:
            pass
"""
    matmuls, calls, cone = hidden_blas(ast.parse(source))
    assert (matmuls, calls) == ({}, [])
    assert cone == ["f: ev.max_norm <= limit",
                    "f: trial.max_norm < 1.0 - SIGMA_MIN",
                    "C.g: except (SpacelikeError, ValueError)",
                    "C.g: max(ev.max_norm, 1.0) >= 1.0",
                    "C.g: except lorentz.SpacelikeError"]


def catenoid_case():
    mesh = build_annulus(1.0, 2.0, 0.1)
    return mesh, np.arcsinh(np.linalg.norm(mesh.vertices, axis=1)), LORENTZ


def saddle_case():
    mesh = build_rectangle(1.0, 1.0, 0.1)
    x, y = mesh.vertices.T
    return mesh, x * x - y * y, EUCLID


def backtracking_case():
    # its first two Newton steps are halved twice and once
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    x, y = mesh.vertices.T
    return mesh, 10.0 * x * y, EUCLID


SQUARE16 = build_rectangle(1.0, 1.0, 1.0 / 16)
ANNULUS = build_annulus(1.0, 2.0, 0.2)

# data too steep for any rung of the initial-guess ladder
NO_GUESS_CASES = {
    "square16-affine": lambda: (SQUARE16, affine_field(SQUARE16, 2.0, 0.0)),
    "annulus-step": lambda: (
        ANNULUS,
        np.where(np.linalg.norm(ANNULUS.vertices, axis=1) > 1.5, 0.9, 0.0)),
}


# the failed start's margin: 1 - max |grad| of the last rung, the constant
# offset from the mean constrained value
NO_GUESS_MARGINS = {"square16-affine": -20.2602916254693,
                    "annulus-step": -1.2528004083856699}


@pytest.mark.parametrize("case", NO_GUESS_CASES)
def test_initial_guess_ladder_without_a_spacelike_rung(case):
    mesh, bc = NO_GUESS_CASES[case]()
    guess, r, _ = _initial_guess(mesh, bc, LORENTZ)
    assert r is None
    assert not guess.spacelike(INITIAL_MARGIN_FACTOR * SIGMA_MIN)
    base = bc.copy()
    base[mesh.interior_vertices] = np.mean(bc[mesh.constrained_vertices])
    np.testing.assert_array_equal(guess.values, base)
    v, report = solve(mesh, bc)
    np.testing.assert_array_equal(v, base)
    assert not report.converged
    assert report.reason == "no spacelike initial guess"
    assert report.margin == NO_GUESS_MARGINS[case] == 1.0 - guess.max_norm
    assert math.isnan(report.residual) and math.isnan(report.energy)
    assert report.iterations == 0
    # the failed start is reported by its step-0 row
    [row] = report.steps
    assert math.isnan(row.residual) and math.isnan(row.energy)
    assert row.margin == NO_GUESS_MARGINS[case]
    assert (row.cycle, row.step_length, row.backtracks) == ("none", 0.0, 0)


def test_one_gradient_per_lorentz_iterate(monkeypatch):
    mesh, bc, _ = catenoid_case()
    residuals = count_calls(monkeypatch, "residual")
    gradients = count_calls(monkeypatch, "p1_gradient")
    v, report = solve(mesh, bc)
    assert report.converged
    candidates = sum(1 + row.backtracks for row in report.steps[1:])
    # a candidate that is not spacelike is rejected without a residual
    assert len(residuals) <= 1 + candidates
    # the harmonic extension's data (for the right-hand side), the start
    # and every candidate; the Laplace matrix evaluates no field
    assert len(gradients) == 2 + candidates
    ev = Evaluation(mesh, v, "lorentz")
    assert report.residual == residual_norm(mesh, residual(mesh, ev))


@pytest.mark.parametrize("case,backtracks", [(catenoid_case, False),
                                             (backtracking_case, True)])
def test_every_reported_residual_is_measured_by_residual_norm(
        case, backtracks, monkeypatch):
    norms = []
    real = solver_module.residual_norm

    def recording(*args):
        norms.append(real(*args))
        return norms[-1]

    monkeypatch.setattr(solver_module, "residual_norm", recording)
    mesh, bc, config = case()
    _, report = solve(mesh, bc, config)
    assert report.converged
    tried = [1 + row.backtracks for row in report.steps[1:]]
    assert (sum(tried) > len(tried)) == backtracks
    # the start, then every candidate (all inside the light cone here), so
    # 1 + iterations calls without backtracks; the last candidate of each
    # step is the accepted one
    accepted = np.cumsum([0] + tried)
    assert len(norms) == 1 + accepted[-1]
    assert [norms[i] for i in accepted] == [row.residual
                                            for row in report.steps]


def test_initial_guess_ladder_evaluation_is_the_newton_start(monkeypatch):
    # noise whose harmonic extension is slightly too steep, so the ladder
    # pulls it back over a few rungs
    bc = np.random.default_rng(0).standard_normal(SQUARE16.vertex_count)
    harmonic = _harmonic_extension(SQUARE16, bc, LORENTZ)[0].values
    g = p1_gradient(SQUARE16, harmonic)
    bc *= 1.03 / np.linalg.norm(g, axis=1).max()
    gradients = count_calls(monkeypatch, "p1_gradient")
    guess, r, _ = _initial_guess(SQUARE16, bc, LORENTZ)
    assert r is None
    ladder = len(gradients)
    # the zero field, the data, the harmonic start and some rungs
    assert ladder > 3
    assert guess.max_norm <= 1.0 - INITIAL_MARGIN_FACTOR * SIGMA_MIN
    gradients.clear()
    _, report = solve(SQUARE16, bc)
    assert report.converged
    assert report.steps[0].margin == 1.0 - guess.max_norm
    candidates = sum(1 + row.backtracks for row in report.steps[1:])
    assert len(gradients) == ladder + candidates


def test_step_margins_are_the_iterates_gradient_margins():
    mesh, bc, config = catenoid_case()
    v, report = solve(mesh, bc, config)
    assert report.converged
    margins = [row.margin for row in report.steps]
    assert margins[-1] == report.margin
    assert report.margin == pytest.approx(gradient_margin(mesh, v), rel=1e-12)
    # the maximal solution is flatter than the harmonic start
    assert margins[0] < margins[-1] < 1.0


@pytest.mark.parametrize("case", [catenoid_case, saddle_case])
def test_newton_forcing_terms_lie_between_linear_tol_and_half(case, monkeypatch):
    tolerances = []
    real_cg = solver_module.cg_solve

    def recording_cg(operator, rhs, linear_tol, *args, early=None, **kwargs):
        # the first tolerance at which the solve may end
        tolerances.append(linear_tol if early is None else early[0])
        return real_cg(operator, rhs, linear_tol, *args, early=early, **kwargs)

    monkeypatch.setattr(solver_module, "cg_solve", recording_cg)
    mesh, bc, config = case()
    _, report = solve(mesh, bc, config)
    assert report.converged
    # the harmonic extension, then one system per Newton step
    assert len(tolerances) == report.iterations + 1
    assert tolerances[0] == START_TOL
    forcing = tolerances[1:]
    assert forcing[0] == FORCING_MAX == 0.5
    assert all(LINEAR_TOL <= eta <= 0.5 for eta in forcing)


def test_forcing_term_choice_two_with_safeguard_and_floors():
    config = SolverConfig(residual_tol=1e-10)
    assert LINEAR_TOL == 1e-12
    assert _forcing_term(1.0, None, 0.01, config) == FORCING_MAX
    # fast decrease: gamma (res / previous)^2
    assert _forcing_term(1e-3, 1e-1, 0.01, config) == \
        pytest.approx(FORCING_GAMMA * 1e-4, rel=1e-15)
    # gamma eta^2 = 0.225 > 0.1 keeps the last forcing term from collapsing
    assert _forcing_term(1e-3, 1e-1, 0.5, config) == \
        pytest.approx(FORCING_GAMMA * 0.25, rel=1e-15)
    # slow decrease is capped at FORCING_MAX
    assert _forcing_term(1.0, 1.0, 0.5, config) == FORCING_MAX
    # never solve past the nonlinear tolerance, never below LINEAR_TOL
    assert _forcing_term(4e-10, 1e-6, 0.01, config) == \
        pytest.approx(0.125, rel=1e-15)
    assert _forcing_term(1e3, 1e9, 0.01, config) == LINEAR_TOL


# ----------------------------------------------------------------------
# harmonic start: early stop against the surface equation's residual
# ----------------------------------------------------------------------


# with coarse levels, so that PCG takes several matvecs
SQUARE32 = build_rectangle(1.0, 1.0, 1.0 / 32)
SQUARE64 = build_rectangle(1.0, 1.0, 1.0 / 64)


# the start's PCG matvecs and the Newton matvecs before the early stop
# existed, on a plane of slope |g| in direction 0.7
@pytest.mark.parametrize("metric, slope, start, newton", [
    ("lorentz", 0.58, 25, []),
    ("lorentz", 0.95, 25, []),
    ("lorentz", 0.99, 25, [1, 3]),
    ("euclid", 0.58, 25, []),
    ("euclid", 0.95, 25, []),
    ("euclid", 0.99, 25, []),
])
def test_affine_data_takes_the_full_start(metric, slope, start, newton,
                                          monkeypatch):
    # F at the loose start is of the size of its Laplace error, so the start
    # is solved to LINEAR_TOL and the solve is the one without an early stop
    config = SolverConfig(metric=metric)
    bc = affine_field(SQUARE64, slope * math.cos(0.7), slope * math.sin(0.7),
                      0.2)
    v, report, counted = counted_solve(monkeypatch, SQUARE64, bc, config)
    assert report.converged
    first = report.steps[0]
    assert first.forcing == LINEAR_TOL and first.achieved <= LINEAR_TOL
    assert [c.matvecs for c in counted] == [start] + newton
    assert [row.matvecs for row in report.steps] == [start] + newton
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "START_TOL", 0.0)  # never offered
        full, report_full = solve(SQUARE64, bc, config)
    np.testing.assert_array_equal(v, full)
    assert report.steps == report_full.steps


def scaled(mesh, factor):
    return Mesh(mesh.vertices * factor, mesh.triangles, mesh.vertex_class,
                mesh.h * factor)


def coarse_pair_data():
    mesh = build_annulus(1.0, 4.0, 0.1, artificial_rings=("outer",))
    return mesh, np.where(mesh.vertex_class == ARTIFICIAL, -1.0, 0.0)


@pytest.mark.parametrize("case", ["saddle", "annulus"])
def test_scaling_mesh_and_data_keeps_start_and_newton_matvecs(case,
                                                              monkeypatch):
    if case == "saddle":
        mesh = SQUARE32
        x, y = mesh.vertices.T
        bc, config = x * x - y * y, EUCLID
    else:
        (mesh, bc), config = coarse_pair_data(), LORENTZ
    matvecs = []
    for factor in (1.0, 10.0):
        # gradients are unchanged; both weak residuals scale by the factor
        # and the area-scaled residual by its inverse
        _, report, counted = counted_solve(
            monkeypatch, scaled(mesh, factor), factor * bc,
            replace(config, residual_tol=config.residual_tol / factor))
        assert report.converged
        assert report.steps[0].forcing == START_TOL
        matvecs.append([c.matvecs for c in counted])
    assert matvecs[0] == matvecs[1]


def test_coarse_annulus_pair_takes_the_loose_start(monkeypatch):
    mesh, bc = coarse_pair_data()
    _, zero, counted = counted_solve(monkeypatch, mesh,
                                     np.zeros(mesh.vertex_count), LORENTZ)
    # zero data needs no Laplace solve
    assert zero.converged and zero.iterations == 0 and counted == []
    first = zero.steps[0]
    assert math.isnan(first.forcing) and math.isnan(first.achieved)
    assert first.matvecs == 0
    _, report, counted = counted_solve(monkeypatch, mesh, bc, LORENTZ)
    assert report.converged
    assert report.steps[0].forcing == START_TOL
    # Newton takes the matvecs it took from the start solved to LINEAR_TOL,
    # in 25 matvecs
    assert [c.matvecs for c in counted] == [12, 2, 2, 4, 9]
    # the rule, checked from outside: safely spacelike, and the Laplace
    # residual amplified by kappa a tenth of F or less
    ev, r, (tol, matvecs, achieved) = _harmonic_extension(mesh, bc, LORENTZ)
    assert (tol, matvecs, achieved) == (START_TOL, 12,
                                        report.steps[0].achieved)
    assert ev.max_norm <= 1.0 - INITIAL_MARGIN_FACTOR * SIGMA_MIN
    free, fixed = mesh.interior_vertices, mesh.constrained_vertices
    k = cotan_laplacian(mesh)
    lap = np.linalg.norm(k[free][:, fixed] @ bc[fixed]
                         + k[free][:, free] @ ev.values[free])
    kappa = (1.0 - ev.max_norm ** 2) ** -1.5
    f = residual(mesh, Evaluation(mesh, ev.values, "lorentz"))
    np.testing.assert_array_equal(r, f)
    assert kappa * lap <= START_GAP * np.linalg.norm(f)


def noise_for_the_ladder(monkeypatch):
    """A 16 x 16 square with coarse levels, so that PCG takes several
    matvecs and the early stop is offered, and noise whose harmonic
    extension, loose or not, is slightly too steep; a ladder rung is
    safely spacelike."""
    monkeypatch.setattr(solver_module, "COARSE_SIZE", 50)
    # a mesh of its own: the first V-cycle on a mesh fixes its aggregates
    mesh = build_rectangle(1.0, 1.0, 1.0 / 16)
    bc = np.random.default_rng(0).standard_normal(mesh.vertex_count)
    harmonic = _harmonic_extension(mesh, bc, LORENTZ)[0].values
    g = p1_gradient(mesh, harmonic)
    return mesh, bc * (1.03 / np.linalg.norm(g, axis=1).max())


def test_start_not_safely_spacelike_falls_back_to_full_path_and_ladder(
        monkeypatch):
    mesh, bc = noise_for_the_ladder(monkeypatch)
    gradients = count_calls(monkeypatch, "p1_gradient")
    guess, r, laplace = _initial_guess(mesh, bc, LORENTZ)
    offered = len(gradients)
    assert r is None and laplace[0] == LINEAR_TOL
    with monkeypatch.context() as patch:
        # a gap test that always passes: the loose start was refused for
        # its gradient
        patch.setattr(solver_module, "START_GAP", math.inf)
        assert _initial_guess(mesh, bc, LORENTZ)[1] is None
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "START_TOL", 0.0)  # never offered
        gradients.clear()
        full, _, full_laplace = _initial_guess(mesh, bc, LORENTZ)
    # the same Laplace solve and ladder rung; the loose start's one
    # evaluation is all that the offer cost
    np.testing.assert_array_equal(guess.values, full.values)
    assert laplace == full_laplace
    assert offered == len(gradients) + 1
    _, report = solve(mesh, bc)
    assert report.converged
    first = report.steps[0]
    assert (first.forcing, first.matvecs, first.achieved) == laplace
    assert first.margin == 1.0 - guess.max_norm


@pytest.mark.parametrize("case", ["loose", "affine", "ladder", "zero",
                                  "catenoid"])
def test_step_matvecs_sum_to_every_pcg_matvec(case, monkeypatch):
    mesh, config = SQUARE32, LORENTZ
    if case == "loose":
        x, y = mesh.vertices.T
        bc, config = x * x - y * y, EUCLID
    elif case == "affine":
        bc = affine_field(mesh, 0.6, -0.7, 0.2)
    elif case == "ladder":
        mesh, bc = noise_for_the_ladder(monkeypatch)
    elif case == "zero":
        bc = np.zeros(mesh.vertex_count)
    else:
        mesh, bc, config = catenoid_case()
    _, report, counted = counted_solve(monkeypatch, mesh, bc, config)
    assert report.converged
    assert sum(row.matvecs for row in report.steps) == \
        sum(c.matvecs for c in counted)
    first = report.steps[0]
    assert first.cycle == "none"
    assert (first.step_length, first.backtracks) == (0.0, 0)
    if case == "zero":
        assert first.matvecs == 0 and math.isnan(first.forcing)
    else:
        assert first.matvecs == counted[0].matvecs > 0
        assert first.forcing == (START_TOL if case in ("loose", "catenoid")
                                 else LINEAR_TOL)
        assert first.achieved <= first.forcing


def exact_newton(mesh, bc, config):
    """Damped Newton from the harmonic extension with every system solved
    by a sparse direct solve, until the residual norm is at round-off."""
    v = _harmonic_extension(mesh, bc, config)[0].values
    free = mesh.interior_vertices
    ev = Evaluation(mesh, v, config.metric)
    res = residual_norm(mesh, residual(mesh, ev))
    for _ in range(20):
        if res <= 1e-14:
            return v
        d = spsolve(scipy_csr(tangent_matrix(mesh, ev)), -residual(mesh, ev))
        step = 1.0
        while True:
            trial = v.copy()
            trial[free] += step * d
            trial_ev = Evaluation(mesh, trial, config.metric)
            try:
                trial_res = residual_norm(mesh, residual(mesh, trial_ev))
            except SpacelikeError:
                trial_res = np.inf
            if trial_res < res:
                break
            step *= 0.5
        v, ev, res = trial, trial_ev, trial_res
    raise AssertionError(f"reference Newton stalled at {res:.3e}")


@pytest.mark.parametrize("case", [catenoid_case, saddle_case])
def test_inexact_newton_converges_to_the_exact_newton_field(case):
    mesh, bc, config = case()
    v, report = solve(mesh, bc, config)
    assert report.converged
    ev = Evaluation(mesh, v, config.metric)
    assert report.residual == residual_norm(mesh, residual(mesh, ev))
    assert report.residual <= config.residual_tol
    ref = exact_newton(mesh, bc, config)
    # to first order v - ref = K^-1 F(v), so |v - ref|_inf <= |F|_2 / lambda_min(K)
    # with |F|_2 = residual * area; twice that leaves room for the second
    # order, 1e-13 for the reference's own round-off
    k = tangent_matrix(mesh, Evaluation(mesh, ref, config.metric))
    lam_min = np.linalg.eigvalsh(k.toarray())[0]
    bound = 2.0 * report.residual * mesh.total_area / lam_min + 1e-13
    assert np.abs(v - ref).max() <= bound


def test_no_kernel_copies_a_mesh_index_table(monkeypatch):
    # every sum over a mesh index table reads a block of the table where it
    # lies, in the table's int32, and np.add.at reads it without the intp
    # copy np.bincount would make of it
    from maxsurf import forms

    mesh = build_rectangle(1.0, 1.0, 1.0 / 128)
    tables = (mesh.triangles, mesh.triangle_edges, mesh.edges)
    assert all(t.dtype == np.int32 and not t.flags.writeable for t in tables)
    ev = Evaluation(mesh, 0.1 * mesh.vertices[:, 0], "lorentz")
    ev.density
    seen = []
    scatter_add = solver_module.scatter_add

    def spy(out, index, weights):
        seen.append(any(np.shares_memory(index, t) and index.base is not None
                        and index.dtype == t.dtype for t in tables))
        return scatter_add(out, index, weights)

    for module in (solver_module, forms):
        monkeypatch.setattr(module, "scatter_add", spy)
    residual(mesh, ev)
    tangent_matrix(mesh, ev)
    tangent_matrix(mesh, None)
    p1_divergence(mesh, ev.gx, ev.gy)
    monkeypatch.undo()
    assert seen and all(seen)
    # one sum over all corners allocates its (V,) output and the 64 KiB
    # buffer in which np.add.at casts the index to intp a chunk at a time;
    # a copy of the corners would take 24 T bytes, 786 KiB here
    t, v = mesh.triangle_count, mesh.vertex_count
    corners = mesh.triangles.ravel()
    weights = np.ones(3 * t)
    tracemalloc.start()
    scatter_add(np.zeros(v), corners, weights)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 8 * v + 96 * 1024


def test_triangle_kernel_transients_stay_within_one_block():
    # beyond the arrays that the residual, the Newton matrix and the
    # Laplace matrix return or build from their (V,) and (E,) sums, each
    # pass over the triangles holds one block's temporaries, and so does
    # the band pass of polyline_pieces (its radii miss the mesh, so it
    # finds no arcs) beyond its mask and sorted ids of the listed
    # triangles, 9 bytes each: from 32,768 to 131,072 triangles (4 to 16
    # blocks) the transients stay within 80 to 192 bytes per block row and
    # do not grow; the whole-array kernels held 48 to 80 bytes per triangle
    from maxsurf.forms import polyline_pieces
    from maxsurf.mesh import TRIANGLE_BLOCK

    def peak(call):
        tracemalloc.start()
        call()
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out

    def transients(n):
        mesh = build_rectangle(1.0, 1.0, 1.0 / n)
        v, e = mesh.vertex_count, len(mesh.edges)
        free = len(mesh.interior_vertices)
        x, y = mesh.vertices.T
        ev = Evaluation(mesh, 0.1 * x + 0.05 * np.sin(y), "lorentz")
        ev.density
        mesh.constrained_vertices
        nnz = tangent_matrix(mesh, ev).nnz  # builds the assembly plan
        every = np.arange(mesh.triangle_count)
        kept = 8 * (e + v + free + nnz)
        return np.array([
            peak(lambda: residual(mesh, ev)) - 8 * (v + free),
            peak(lambda: tangent_matrix(mesh, ev)) - kept,
            peak(lambda: tangent_matrix(mesh, None)) - kept,
            peak(lambda: polyline_pieces(mesh, [5.0, 6.0], every))
            - 9 * len(every)])

    small, large = transients(128), transients(256)
    assert np.all(large <= np.array([80, 128, 80, 192]) * TRIANGLE_BLOCK)
    assert np.all(large <= small + 64 * 1024)


def test_assembly_plan_build_peak_per_edge():
    # built from the free edges' upper half and its CSR transpose: 51.5
    # bytes per edge on this annulus, of which the plan keeps 21
    mesh = build_annulus(1.0, 4.0, 0.1, artificial_rings=["outer"])
    mesh.interior_vertices  # kept by the mesh, not by the plan
    tracemalloc.start()
    _AssemblyPlan(mesh)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 64 * len(mesh.edges)


def test_solve_keeps_every_index_array_int32(monkeypatch):
    # the mesh tables, the assembly plan, the aggregates and every level
    # of every V-cycle a solve builds: one index type throughout
    mesh = build_annulus(1.0, 4.0, 0.1, artificial_rings=["outer"])
    bc = np.where(np.hypot(*mesh.vertices.T) > 2.0, -1.0, 0.0)
    cycles = []
    real = solver_module._vcycle

    def recording(plan, matrix):
        cycles.append(real(plan, matrix))
        return cycles[-1]

    monkeypatch.setattr(solver_module, "_vcycle", recording)
    _, report = solve(mesh, bc)
    assert report.converged
    plan = solver_module._plan(mesh)
    assert len(cycles) >= 2 and plan.tentatives
    matrices = list(plan.tentatives)
    for cycle in cycles:
        assert cycle.tentatives is plan.tentatives
        matrices += [m for a, _, p in cycle.levels for m in (a, p)]
        if isinstance(cycle.bottom, _CSR):
            matrices.append(cycle.bottom)
    arrays = [mesh.triangles, mesh.edges, mesh.triangle_edges,
              plan.edge_slots, plan.diagonal_slots, plan.indices, plan.indptr]
    arrays += [x for m in matrices for x in (m.indices, m.indptr)]
    assert [x.dtype for x in arrays] == [np.int32] * len(arrays)


def test_multilevel_rejects_indefinite_operator():
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    k = tangent_matrix(mesh,
                       Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid"))
    shifted = solver_csr(scipy_csr(k)
                         - 0.5 * k.diagonal().max() * identity(k.shape[0]))
    assert shifted.diagonal().min() > 0.0
    rhs = np.random.default_rng(4).standard_normal(k.shape[0])
    with pytest.raises(NonConvergenceError, match="positive definite"):
        cg_solve(shifted, rhs, 1e-12, _VCycle(shifted))
    with pytest.raises(NonConvergenceError, match="positive definite"):
        _VCycle(solver_csr(-scipy_csr(k)))


def test_vcycle_coarsens_weak_links_and_stops_on_a_diagonal():
    n = 3 * COARSE_SIZE
    rhs = np.random.default_rng(5).standard_normal(n)
    # every link is weak at STRENGTH_THETA, so aggregation retries at 0
    weak = diags([np.full(n - 1, -0.01), np.ones(n), np.full(n - 1, -0.01)],
                 [-1, 0, 1], format="csr")
    vcycle = _VCycle(solver_csr(weak))
    assert vcycle.levels
    np.testing.assert_allclose(
        cg_solve(solver_csr(weak), rhs, 1e-13, vcycle)[0],
        spsolve(weak, rhs), rtol=1e-10)
    # nothing to aggregate: one damped Jacobi sweep
    d = np.linspace(1.0, 2.0, n)
    vcycle = _VCycle(solver_csr(diags(d, format="csr")))
    assert not vcycle.levels
    np.testing.assert_allclose(vcycle(rhs), JACOBI_WEIGHT * rhs / d,
                               rtol=1e-15)


def test_cg_rejects_indefinite_preconditioner():
    with pytest.raises(NonConvergenceError, match="preconditioner is not positive definite"):
        cg_solve(np.eye(2), np.array([1.0, 0.0]), 1e-12, lambda r: -r)


# ----------------------------------------------------------------------
# nonlinear solve
# ----------------------------------------------------------------------


def test_affine_solved_exactly_both_metrics(square16):
    bc = affine_field(square16, 0.3, 0.4)
    for cfg in (LORENTZ, EUCLID):
        v, rep = solve(square16, bc, cfg)
        assert rep.converged
        assert rep.iterations <= 2
        assert np.abs(v - bc).max() <= 1e-9


def test_affine_report_fields(square16):
    bc = affine_field(square16, 0.6, 0.0)
    v, rep = solve(square16, bc)
    assert rep.residual <= LORENTZ.residual_tol
    assert rep.margin == pytest.approx(0.4, abs=1e-9)
    assert np.isfinite(rep.energy)
    keys = [k for k, _ in rep.record_items()]
    assert keys == ["iterations", "residual", "margin", "energy", "converged"]


def test_catenoid_convergence_and_margin():
    errs = []
    for h in (0.2, 0.1):
        m = build_annulus(1.0, 2.0, h)
        exact = np.arcsinh(np.linalg.norm(m.vertices, axis=1))
        v, rep = solve(m, exact)
        assert rep.converged
        errs.append(np.abs(v - exact).max())
        margin = rep.margin
    assert 2.5 <= errs[0] / errs[1] <= 5.5
    assert margin == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), rel=0.2)


def test_energy_history_monotone():
    m = build_annulus(1.0, 2.0, 0.2)
    bc = np.arcsinh(np.linalg.norm(m.vertices, axis=1))
    v, rep = solve(m, bc)
    hist = np.asarray([s.energy for s in rep.steps])
    scale = np.abs(hist).max()
    # Lorentzian area is maximized along accepted steps
    assert np.all(np.diff(hist) >= -1e-12 * scale)
    x, y = m.vertices.T
    u, rep_e = solve(m, 0.5 * x * y, EUCLID)
    hist_e = np.asarray([s.energy for s in rep_e.steps])
    # Euclidean area is minimized
    assert np.all(np.diff(hist_e) <= 1e-12 * np.abs(hist_e).max())


def test_solutions_are_one_lipschitz_on_edges():
    m = build_annulus(1.0, 2.0, 0.2)
    v, rep = solve(m, np.arcsinh(np.linalg.norm(m.vertices, axis=1)))
    assert rep.converged
    a, b = m.edges[:, 0], m.edges[:, 1]
    lengths = np.linalg.norm(m.vertices[a] - m.vertices[b], axis=1)
    assert np.all(np.abs(v[a] - v[b]) < lengths)


def test_nonconvergence_is_reported_not_raised(square4):
    bc = affine_field(square4, 2.0, 0.0)
    v, rep = solve(square4, bc)
    assert not rep.converged
    assert rep.reason == "no spacelike initial guess"
    assert rep.iterations == 0
    assert v.shape == (square4.vertex_count,)


def test_max_newton_exceeded_reported():
    m = build_annulus(1.0, 2.0, 0.2)
    bc = np.arcsinh(np.linalg.norm(m.vertices, axis=1))
    v, rep = solve(m, bc, SolverConfig(max_newton=1))
    assert not rep.converged
    assert rep.reason == "max_newton exceeded"
    assert rep.iterations == 1


def test_failed_solve_reports_its_last_row_without_recomputing(monkeypatch):
    m = build_annulus(1.0, 2.0, 0.1)
    bc = np.where(np.linalg.norm(m.vertices, axis=1) > 1.5, 0.5, 0.0)
    residuals = count_calls(monkeypatch, "residual")
    energies = count_calls(monkeypatch, "energy")
    v, rep = solve(m, bc, SolverConfig(max_newton=1))
    assert rep.reason == "max_newton exceeded"
    # the start and the one Newton iterate, each evaluated once
    assert (len(residuals), len(energies)) == (2, 2)
    last = rep.steps[-1]
    assert (rep.residual, rep.energy, rep.margin) == \
        (last.residual, last.energy, last.margin)
    assert rep.margin == pytest.approx(gradient_margin(m, v), rel=1e-12)


def test_solve_requires_free_vertices():
    m = build_rectangle(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="free"):
        solve(m, np.zeros(m.vertex_count))


@pytest.mark.parametrize("metric", ["lorentz", "euclid"])
def test_solve_reads_only_the_constrained_entries(square4, metric):
    config = SolverConfig(metric=metric)
    bc = affine_field(square4, 0.3, 0.4)
    ref, rep = solve(square4, bc, config)
    assert rep.converged
    noisy = bc.copy()
    noisy[square4.interior_vertices] = [np.nan, np.inf, -np.inf] * 3
    got, rep = solve(square4, noisy, config)
    assert rep.converged
    np.testing.assert_array_equal(got, ref)
    for bad in (np.nan, np.inf):
        noisy = bc.copy()
        noisy[square4.constrained_vertices[5]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve(square4, noisy, config)


def test_solve_deterministic(square16):
    bc = 0.4 * np.sin(2.0 * square16.vertices[:, 0]) + 0.2 * square16.vertices[:, 1]
    v1, rep1 = solve(square16, bc)
    v2, rep2 = solve(square16, bc)
    assert np.array_equal(v1, v2)
    assert rep1.iterations == rep2.iterations
    assert rep1.residual == rep2.residual


# ----------------------------------------------------------------------
# margin and serialization
# ----------------------------------------------------------------------


def test_gradient_margin_values(square4):
    # the tests' margin oracle, on a flat field and a plane of slope 0.6
    assert gradient_margin(square4, np.zeros(square4.vertex_count)) == 1.0
    v = affine_field(square4, 0.6, 0.0)
    assert gradient_margin(square4, v) == pytest.approx(0.4, rel=1e-12)


def test_field_round_trip(tmp_path, square4):
    v = affine_field(square4, 0.1, 0.2, c=3.0)
    path = tmp_path / "f.csv"
    save_field(square4, v, path)
    assert path.read_text().splitlines()[0] == FIELD_HEADER
    np.testing.assert_array_equal(load_field(square4, path), v)


def test_field_load_rejects_other_mesh(tmp_path, square4, square16):
    path = tmp_path / "f.csv"
    save_field(square4, affine_field(square4, 0.1, 0.0), path)
    with pytest.raises(ValueError):
        load_field(square16, path)


def test_field_load_rejects_fractional_ids(tmp_path, square4):
    # ids 0.7, 1.7, ... would truncate to 0, 1, ...
    path = tmp_path / "f.csv"
    save_field(square4, affine_field(square4, 0.1, 0.0), path)
    header, *lines = path.read_text().splitlines()
    shifted = [f"{k}.7,{line.split(',', 1)[1]}" for k, line in enumerate(lines)]
    path.write_text("\n".join([header, *shifted]) + "\n")
    with pytest.raises(ValueError, match="vertex ids"):
        load_field(square4, path)


@pytest.mark.parametrize("column", ["x", "y"])
def test_field_load_rejects_nan_coordinates(tmp_path, square4, column):
    path = tmp_path / "f.csv"
    nan_coordinate_field(path, square4, column)
    with pytest.raises(ValueError,
                       match="field coordinates do not match the mesh"):
        load_field(square4, path)
