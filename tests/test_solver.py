from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import diags, identity

from maxsurf import (
    NonConvergenceError,
    SolverConfig,
    SpacelikeError,
    build_annulus,
    build_rectangle,
    cg_solve,
    energy,
    gradient_margin,
    load_field,
    p1_gradient,
    residual,
    residual_norm,
    save_field,
    solve,
    tangent_matrix,
)
from maxsurf import solver as solver_module
from maxsurf.solver import (COARSE_SIZE, FIELD_HEADER, FORCING_GAMMA,
                            FORCING_MAX, JACOBI_WEIGHT, LINEAR_TOL,
                            _forcing_term, _harmonic_extension, _VCycle)

from conftest import affine_field, jittered, spacelike_field

LORENTZ = SolverConfig()
EUCLID = SolverConfig(metric="euclid")


def cotan_laplacian(mesh):
    """Independent stiffness assembly from the cotangent formula."""
    n = mesh.vertex_count
    k = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        for loc in range(3):
            i, j, opp = tri[(loc + 1) % 3], tri[(loc + 2) % 3], tri[loc]
            e1 = mesh.vertices[i] - mesh.vertices[opp]
            e2 = mesh.vertices[j] - mesh.vertices[opp]
            cot = float(e1 @ e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
            k[i, j] -= 0.5 * cot
            k[j, i] -= 0.5 * cot
            k[i, i] += 0.5 * cot
            k[j, j] += 0.5 * cot
        del pts
    return k


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
        assert np.abs(residual(square4, v, cfg)).max() <= 1e-14


def test_residual_rejects_lightlike(square4):
    v = affine_field(square4, 1.0, 0.0)
    with pytest.raises(SpacelikeError):
        residual(square4, v, LORENTZ)
    # the Euclidean operator has no cone to violate
    assert np.isfinite(residual(square4, v, EUCLID)).all()


def test_interpolated_catenoid_residual_decays():
    norms = []
    for h in (0.2, 0.1):
        m = build_annulus(1.0, 2.0, h)
        exact = np.arcsinh(np.linalg.norm(m.vertices, axis=1))
        norms.append(residual_norm(m, exact, LORENTZ))
    assert norms[1] <= 0.5 * norms[0]


def test_residual_is_energy_gradient(square4):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(square4.vertex_count)
    v *= 0.5 / np.linalg.norm(p1_gradient(square4, v), axis=1).max()
    step = 1e-6
    for cfg, sign in ((LORENTZ, -1.0), (EUCLID, 1.0)):
        r = residual(square4, v, cfg)
        for slot, i in enumerate(square4.interior_vertices):
            vp, vm = v.copy(), v.copy()
            vp[i] += step
            vm[i] -= step
            fd = (energy(square4, vp, cfg) - energy(square4, vm, cfg)) / (2 * step)
            assert r[slot] == pytest.approx(sign * fd, rel=1e-5, abs=1e-9)


# ----------------------------------------------------------------------
# tangent operator
# ----------------------------------------------------------------------


def test_tangent_at_zero_is_cotan_laplacian(square4):
    v = np.zeros(square4.vertex_count)
    k = tangent_matrix(square4, v, LORENTZ, full=True).toarray()
    np.testing.assert_allclose(k, cotan_laplacian(square4), rtol=0, atol=1e-12)


def test_metrics_agree_at_zero_gradient(square4):
    v = np.full(square4.vertex_count, 2.0)
    kl = tangent_matrix(square4, v, LORENTZ, full=True).toarray()
    ke = tangent_matrix(square4, v, EUCLID, full=True).toarray()
    np.testing.assert_array_equal(kl, ke)


def test_tangent_spd_for_random_admissible(square4):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(square4.vertex_count)
    v *= 0.5 / (1.0 - gradient_margin(square4, v))
    for cfg in (LORENTZ, EUCLID):
        k = tangent_matrix(square4, v, cfg).toarray()
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > 0.0


# ----------------------------------------------------------------------
# conjugate gradients
# ----------------------------------------------------------------------


def test_cg_identity_returns_rhs():
    rhs = np.array([1.0, -2.0, 0.5])
    out = cg_solve(np.eye(3), rhs, 1e-12)
    np.testing.assert_array_equal(out, rhs)


def test_cg_two_by_two():
    out = cg_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]), 1e-14)
    np.testing.assert_allclose(out, [2.0 / 3.0, -1.0 / 3.0], rtol=1e-12)


def test_cg_matches_dense_solver():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((30, 30))
    a = b @ b.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal(30)
    got = cg_solve(a, rhs, 1e-13)
    np.testing.assert_allclose(got, np.linalg.solve(a, rhs), rtol=1e-9, atol=1e-12)


def test_cg_rejects_indefinite_operator():
    with pytest.raises(NonConvergenceError, match="positive definite") as err:
        cg_solve(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 1e-12)
    assert err.value.achieved > 0.0


def test_cg_iteration_cap():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((40, 40))
    a = b @ b.T + 0.1 * np.eye(40)
    with pytest.raises(NonConvergenceError, match="cap"):
        cg_solve(a, rng.standard_normal(40), 1e-14, max_iter=2)


def test_cg_zero_rhs_short_circuits():
    out = cg_solve(np.eye(4), np.zeros(4), 1e-12)
    np.testing.assert_array_equal(out, np.zeros(4))


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
    return tangent_matrix(mesh, spacelike_field(mesh, seed),
                          SolverConfig(metric=metric))


@settings(max_examples=25, deadline=None)
@given(mesh=multilevel_meshes(), metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1))
def test_multilevel_pcg_matches_jacobi_cg(mesh, metric, seed):
    k = newton_matrix(mesh, metric, seed)
    vcycle = _VCycle(k)
    if k.shape[0] > COARSE_SIZE:
        assert vcycle.levels
    rhs = np.random.default_rng(seed).standard_normal(k.shape[0])
    ref = cg_solve(k, rhs, 1e-14)
    got = cg_solve(k, rhs, 1e-14, preconditioner=vcycle)
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


@settings(max_examples=15, deadline=None)
@given(mesh=multilevel_meshes(), seed=st.integers(0, 2**32 - 1))
def test_harmonic_extension_matches_sliced_jacobi_cg(mesh, seed):
    config = SolverConfig(metric="euclid")
    bc = np.random.default_rng(seed).standard_normal(mesh.vertex_count)
    with mock.patch.object(solver_module, "LINEAR_TOL", 1e-14):
        got = _harmonic_extension(mesh, bc, config)
    k = tangent_matrix(mesh, np.zeros(mesh.vertex_count), config, full=True)
    free, fixed = mesh.interior_vertices, mesh.constrained_vertices
    ref = cg_solve(k[free][:, free], -k[free][:, fixed] @ bc[fixed], 1e-14)
    np.testing.assert_array_equal(got[fixed], bc[fixed])
    assert np.linalg.norm(got[free] - ref) <= 1e-10 * np.linalg.norm(ref)


class CountingOperator:
    """Forwards ``@`` only, counting the calls."""

    def __init__(self, operator):
        self.operator = operator
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.operator @ x


def test_multilevel_matvec_count_is_pinned(monkeypatch):
    counted = []
    real_cg = solver_module.cg_solve

    def counting_cg(operator, *args, **kwargs):
        counted.append(CountingOperator(operator))
        return real_cg(counted[-1], *args, **kwargs)

    monkeypatch.setattr(solver_module, "cg_solve", counting_cg)
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    x, y = mesh.vertices.T
    _, report = solve(mesh, x * x - y * y, EUCLID)
    assert report.converged
    assert report.iterations == 5
    # outer PCG matvecs: the harmonic extension, then each inexact Newton step
    assert [c.matvecs for c in counted] == [17, 2, 2, 5, 10, 1]


def catenoid_case():
    mesh = build_annulus(1.0, 2.0, 0.1)
    return mesh, np.arcsinh(np.linalg.norm(mesh.vertices, axis=1)), LORENTZ


def saddle_case():
    mesh = build_rectangle(1.0, 1.0, 0.1)
    x, y = mesh.vertices.T
    return mesh, x * x - y * y, EUCLID


@pytest.mark.parametrize("case", [catenoid_case, saddle_case])
def test_newton_forcing_terms_lie_between_linear_tol_and_half(case, monkeypatch):
    tolerances = []
    real_cg = solver_module.cg_solve

    def recording_cg(operator, rhs, linear_tol, **kwargs):
        tolerances.append(linear_tol)
        return real_cg(operator, rhs, linear_tol, **kwargs)

    monkeypatch.setattr(solver_module, "cg_solve", recording_cg)
    mesh, bc, config = case()
    _, report = solve(mesh, bc, config)
    assert report.converged
    # the harmonic extension, then one system per Newton step
    assert len(tolerances) == report.iterations + 1
    assert tolerances[0] == LINEAR_TOL
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


def exact_newton(mesh, bc, config):
    """Damped Newton from the harmonic extension with every system solved
    to 1e-12 by Jacobi CG, until the residual norm is at round-off."""
    v = _harmonic_extension(mesh, bc, config)
    free = mesh.interior_vertices
    res = residual_norm(mesh, v, config)
    for _ in range(20):
        if res <= 1e-14:
            return v
        d = cg_solve(tangent_matrix(mesh, v, config),
                     -residual(mesh, v, config), 1e-12)
        step = 1.0
        while True:
            trial = v.copy()
            trial[free] += step * d
            try:
                trial_res = residual_norm(mesh, trial, config)
            except SpacelikeError:
                trial_res = np.inf
            if trial_res < res:
                break
            step *= 0.5
        v, res = trial, trial_res
    raise AssertionError(f"reference Newton stalled at {res:.3e}")


@pytest.mark.parametrize("case", [catenoid_case, saddle_case])
def test_inexact_newton_converges_to_the_exact_newton_field(case):
    mesh, bc, config = case()
    v, report = solve(mesh, bc, config)
    assert report.converged
    assert report.residual == residual_norm(mesh, v, config)
    assert report.residual <= config.residual_tol
    ref = exact_newton(mesh, bc, config)
    # to first order v - ref = K^-1 F(v), so |v - ref|_inf <= |F|_2 / lambda_min(K)
    # with |F|_2 = residual * area; twice that leaves room for the second
    # order, 1e-13 for the reference's own round-off
    lam_min = np.linalg.eigvalsh(tangent_matrix(mesh, ref, config).toarray())[0]
    bound = 2.0 * report.residual * mesh.total_area / lam_min + 1e-13
    assert np.abs(v - ref).max() <= bound


def test_multilevel_rejects_indefinite_operator():
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    k = tangent_matrix(mesh, np.zeros(mesh.vertex_count), EUCLID)
    shifted = (k - 0.5 * k.diagonal().max() * identity(k.shape[0])).tocsr()
    assert shifted.diagonal().min() > 0.0
    rhs = np.random.default_rng(4).standard_normal(k.shape[0])
    with pytest.raises(NonConvergenceError, match="positive definite"):
        cg_solve(shifted, rhs, 1e-12, preconditioner=_VCycle(shifted))
    with pytest.raises(NonConvergenceError, match="positive definite"):
        _VCycle(-k)


def test_vcycle_coarsens_weak_links_and_stops_on_a_diagonal():
    n = 3 * COARSE_SIZE
    rhs = np.random.default_rng(5).standard_normal(n)
    # every link is weak at STRENGTH_THETA, so aggregation retries at 0
    weak = diags([np.full(n - 1, -0.01), np.ones(n), np.full(n - 1, -0.01)],
                 [-1, 0, 1], format="csr")
    vcycle = _VCycle(weak)
    assert vcycle.levels
    np.testing.assert_allclose(
        cg_solve(weak, rhs, 1e-13, preconditioner=vcycle),
        cg_solve(weak, rhs, 1e-13), rtol=1e-10)
    # nothing to aggregate: one damped Jacobi sweep
    d = np.linspace(1.0, 2.0, n)
    vcycle = _VCycle(diags(d, format="csr"))
    assert not vcycle.levels
    np.testing.assert_allclose(vcycle(rhs), JACOBI_WEIGHT * rhs / d,
                               rtol=1e-15)


def test_cg_rejects_indefinite_preconditioner():
    with pytest.raises(NonConvergenceError, match="preconditioner is not positive definite"):
        cg_solve(np.eye(2), np.array([1.0, 0.0]), 1e-12,
                 preconditioner=lambda r: -r)


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
    hist = np.asarray(rep.energy_history)
    scale = np.abs(hist).max()
    # Lorentzian area is maximized along accepted steps
    assert np.all(np.diff(hist) >= -1e-12 * scale)
    x, y = m.vertices.T
    u, rep_e = solve(m, 0.5 * x * y, EUCLID)
    hist_e = np.asarray(rep_e.energy_history)
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


def test_solve_requires_free_vertices():
    m = build_rectangle(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="free"):
        solve(m, np.zeros(m.vertex_count))


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
    assert gradient_margin(square4, np.zeros(square4.vertex_count)) == 1.0
    v = affine_field(square4, 0.6, 0.0)
    assert gradient_margin(square4, v) == pytest.approx(0.4, rel=1e-12)
    assert gradient_margin(square4, v, triangles=np.array([0, 1])) == \
        pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        gradient_margin(square4, v, triangles=np.array([], dtype=np.int64))


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
