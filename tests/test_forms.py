"""Discrete 1-forms: circulations, polyline pieces, potentials."""

import numpy as np
import pytest

from maxsurf import (
    ClosednessError,
    INTERIOR,
    SolverConfig,
    TopologyError,
    build_annulus,
    circle_polyline,
    coercivity_constants,
    flux_form,
    integrate_potential,
    max_interior_circulation,
    p1_gradient,
    residual,
    solve,
)
from conftest import affine_field
from maxsurf.forms import _interp_at, circulations, polyline_pieces


def rotational_form(mesh):
    # (-y, x) sampled at centroids; its circulation measures star area.
    c = mesh.centroids
    return np.stack([-c[:, 1], c[:, 0]], axis=1)


def gradient_form(mesh, values):
    return p1_gradient(mesh, values)


def line_integral(mesh, form, points, triangles=None):
    """Integral of the form along the polyline pieces, exact per piece."""
    tri, delta, _ = polyline_pieces(mesh, points, triangles=triangles)
    return float(np.sum(form[tri] * delta))


def norm_line_integral(mesh, form, points, triangles=None):
    """Arclength integral of |(p, q)|, as the flux scan sums eta."""
    tri, delta, _ = polyline_pieces(mesh, points, triangles=triangles)
    return float(np.linalg.norm(form[tri], axis=1)
                 @ np.linalg.norm(delta, axis=1))


def weighted_line_integral(mesh, scalar, form, points):
    """Integral of scalar * form with the P1 scalar at piece midpoints, as
    the flux scan sums level_flux; exact for P1 scalars."""
    tri, delta, mid = polyline_pieces(mesh, points)
    vals = _interp_at(mesh, scalar, tri, mid)
    return float(vals @ np.sum(form[tri] * delta, axis=1))


def wedge(mesh, scalar, form, triangles=None):
    """Integral of d(scalar) wedge form: sum_T area_T (v_x q - v_y p)."""
    g = p1_gradient(mesh, scalar)
    dens = mesh.areas * (g[:, 0] * form[:, 1] - g[:, 1] * form[:, 0])
    return float(dens.sum() if triangles is None else dens[triangles].sum())


def loop_vertex_circulation(mesh, form, vertex):
    """Circulation around one vertex, one incident triangle at a time."""
    total = 0.0
    pts = mesh.vertices
    for tri in np.flatnonzero(np.any(mesh.triangles == vertex, axis=1)):
        corners = mesh.triangles[tri]
        i = int(np.where(corners == vertex)[0][0])
        j = corners[(i + 1) % 3]
        k = corners[(i + 2) % 3]
        total += float(form[tri] @ (0.5 * (pts[k] - pts[j])))
    return total


# ---------------------------------------------------------------------------
# flux form coefficients


def test_flux_form_of_tilted_plane(square4):
    v = 0.6 * square4.vertices[:, 0]
    form = flux_form(square4, v)
    expected = np.tile([0.0, 0.75], (square4.triangle_count, 1))
    np.testing.assert_allclose(form, expected, rtol=1e-14, atol=0.0)

    v = 0.6 * square4.vertices[:, 1]
    form = flux_form(square4, v)
    expected = np.tile([-0.75, 0.0], (square4.triangle_count, 1))
    np.testing.assert_allclose(form, expected, rtol=1e-14, atol=0.0)


def test_flux_form_rejects_steep_field(square4):
    from maxsurf import SpacelikeError

    with pytest.raises(SpacelikeError):
        flux_form(square4, 1.5 * square4.vertices[:, 0])


# ---------------------------------------------------------------------------
# circulations


def test_circulation_matches_residual(solved_pair):
    # The loop integral of the flux form around an interior vertex is the
    # negated equation residual at that vertex, identically in exact
    # arithmetic; here they are assembled by different code paths.
    mesh, v, vp = solved_pair
    config = SolverConfig()
    for field in (v, vp):
        circ = circulations(mesh, flux_form(mesh, field))
        res = residual(mesh, field, config)
        np.testing.assert_allclose(
            circ[mesh.interior_vertices], -res, rtol=0.0, atol=1e-13)


def test_rotational_circulation_is_two_thirds_star_area(square4):
    form = rotational_form(square4)
    center = int(np.argmin(
        np.linalg.norm(square4.vertices - [0.5, 0.5], axis=1)))
    star = np.any(square4.triangles == center, axis=1)
    assert np.count_nonzero(star) == 6
    expected = (2.0 / 3.0) * square4.areas[star].sum()
    got = circulations(square4, form)[center]
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(0.125, rel=1e-13)


def test_rotational_circulation_on_unstructured_star(annulus_coarse):
    form = rotational_form(annulus_coarse)
    circ = circulations(annulus_coarse, form)
    for v in annulus_coarse.interior_vertices[::11]:
        star = np.any(annulus_coarse.triangles == v, axis=1)
        expected = (2.0 / 3.0) * annulus_coarse.areas[star].sum()
        assert circ[int(v)] == pytest.approx(expected, rel=1e-12)


def test_vertex_circulation_agrees_with_bulk(square4):
    rng = np.random.default_rng(8)
    form = rng.standard_normal((square4.triangle_count, 2))
    circ = circulations(square4, form)
    for v in square4.interior_vertices:
        assert loop_vertex_circulation(square4, form, int(v)) == pytest.approx(
            circ[int(v)], rel=1e-13)


def test_gradient_form_is_closed(square16):
    f = np.sin(square16.vertices[:, 0]) + square16.vertices[:, 1] ** 2
    form = gradient_form(square16, f)
    assert max_interior_circulation(square16, form) < 1e-13


# ---------------------------------------------------------------------------
# line integrals


def test_line_integral_constant_form(square4):
    form = np.tile([0.3, -0.2], (square4.triangle_count, 1))
    pts = np.array([[0.1, 0.2], [0.7, 0.9]])
    expected = 0.3 * 0.6 + (-0.2) * 0.7
    assert line_integral(square4, form, pts) == pytest.approx(expected, rel=1e-13)


def test_line_integral_of_gradient_telescopes(square16):
    # For df the integral depends only on the endpoints.
    f = affine_field(square16, 0.4, -0.7, 0.2)
    form = gradient_form(square16, f)
    pts = np.array([[0.125, 0.25], [0.8, 0.3], [0.4, 0.9], [0.6, 0.1]])
    expected = (0.4 * (0.6 - 0.125) + (-0.7) * (0.1 - 0.25))
    assert line_integral(square16, form, pts) == pytest.approx(expected, rel=1e-12)


def test_line_integral_closed_loop_of_gradient(square16):
    f = np.cos(square16.vertices[:, 0] * 2.0) * square16.vertices[:, 1]
    form = gradient_form(square16, f)
    loop = np.array([[0.2, 0.2], [0.8, 0.3], [0.7, 0.8], [0.25, 0.7],
                     [0.2, 0.2]])
    assert abs(line_integral(square16, form, loop)) < 1e-12


def test_polyline_pieces_partition_segment(square4):
    pts = np.array([[0.05, 0.1], [0.9, 0.85]])
    tri, delta, mid = polyline_pieces(square4, pts)
    np.testing.assert_allclose(delta.sum(axis=0), pts[1] - pts[0], atol=1e-12)
    # every midpoint must lie in its assigned triangle
    for t, m in zip(tri, mid):
        corners = square4.vertices[square4.triangles[t]]
        mat = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        lam = np.linalg.solve(mat, m - corners[0])
        assert lam[0] >= -1e-9 and lam[1] >= -1e-9
        assert lam.sum() <= 1.0 + 1e-9


def test_catenoid_flux_through_circle():
    mesh = build_annulus(1.0, 2.0, 0.1)
    v0 = np.arcsinh(np.linalg.norm(mesh.vertices, axis=1))
    v, report = solve(mesh, v0)
    assert report.converged
    loop = circle_polyline(1.5, 0.05)
    flux = line_integral(mesh, flux_form(mesh, v), loop)
    # exact catenoid carries total flux 2*pi through any concentric circle
    assert flux == pytest.approx(2.0 * np.pi, rel=0.03)


# ---------------------------------------------------------------------------
# weighted and norm line integrals over the pieces


def test_weighted_line_integral_unit_weight(square4):
    rng = np.random.default_rng(11)
    form = rng.standard_normal((square4.triangle_count, 2))
    pts = np.array([[0.1, 0.15], [0.85, 0.6], [0.3, 0.9]])
    ones = np.ones(square4.vertex_count)
    assert weighted_line_integral(square4, ones, form, pts) == pytest.approx(
        line_integral(square4, form, pts), rel=1e-13)
    assert weighted_line_integral(
        square4, np.zeros(square4.vertex_count), form, pts) == 0.0


def test_weighted_line_integral_linear_weight(square4):
    # weight x against dx along a horizontal run: integral of x dx
    form = np.tile([1.0, 0.0], (square4.triangle_count, 1))
    scalar = square4.vertices[:, 0].copy()
    pts = np.array([[0.2, 0.3], [0.8, 0.3]])
    expected = 0.5 * (0.8 ** 2 - 0.2 ** 2)
    assert weighted_line_integral(square4, scalar, form, pts) == pytest.approx(
        expected, rel=1e-12)


def test_norm_line_integral_constant(square4):
    form = np.tile([0.0, 0.75], (square4.triangle_count, 1))
    pts = np.array([[0.5, 0.0], [0.5, 1.0]])
    assert norm_line_integral(square4, form, pts) == pytest.approx(0.75, rel=1e-13)


def test_norm_bounds_line_integral(square4):
    rng = np.random.default_rng(23)
    pts = np.array([[0.1, 0.1], [0.9, 0.2], [0.5, 0.9]])
    for _ in range(100):
        form = rng.standard_normal((square4.triangle_count, 2))
        assert abs(line_integral(square4, form, pts)) <= (
            norm_line_integral(square4, form, pts) + 1e-12)


# ---------------------------------------------------------------------------
# clipping


def test_clip_keeps_inside_portion(square4):
    form = np.tile([0.0, 1.0], (square4.triangle_count, 1))
    pts = np.array([[0.5, 0.5], [1.5, 0.5]])
    assert norm_line_integral(square4, form, pts) == pytest.approx(
        0.5, rel=1e-12)


def test_clip_to_triangle_subset(square4):
    form = np.tile([0.0, 1.0], (square4.triangle_count, 1))
    pts = np.array([[0.5, 0.1], [0.5, 0.9]])
    lower = np.nonzero(square4.centroids[:, 1] < 0.5)[0]
    got = norm_line_integral(square4, form, pts, triangles=lower)
    assert got == pytest.approx(0.4, rel=1e-12)


# ---------------------------------------------------------------------------
# circles


def test_circle_polyline_shape():
    loop = circle_polyline(1.5, 0.05)
    assert loop.shape[0] >= 2.0 * np.pi * 1.5 / 0.05
    assert np.array_equal(loop[0], loop[-1])
    radii = np.linalg.norm(loop, axis=1)
    np.testing.assert_allclose(radii, 1.5, rtol=1e-12)
    chords = np.linalg.norm(np.diff(loop, axis=0), axis=1)
    assert chords.max() <= 0.05


def test_circle_polyline_minimum_resolution():
    # even a tiny circle keeps at least eight segments
    loop = circle_polyline(0.01, 10.0)
    assert loop.shape[0] == 9


def test_circle_polyline_validation():
    with pytest.raises(ValueError):
        circle_polyline(-1.0, 0.1)
    with pytest.raises(ValueError):
        circle_polyline(1.0, 0.0)


# ---------------------------------------------------------------------------
# wedges


def test_wedge_coercivity_on_solved_pair(solved_pair):
    # The pairing of the difference field against the difference of flux
    # forms dominates the squared flux gap, triangle by triangle, hence on
    # every subset, with the constant set by the worst gradient norm.
    mesh, v, vp = solved_pair
    g = p1_gradient(mesh, v)
    gp = p1_gradient(mesh, vp)
    worst = max(np.linalg.norm(g, axis=1).max(),
                np.linalg.norm(gp, axis=1).max())
    eps_hat = 1.0 - worst
    assert eps_hat > 0.0
    c = coercivity_constants(eps_hat).c
    diff_form = flux_form(mesh, v) - flux_form(mesh, vp)
    diff = v - vp
    rng = np.random.default_rng(31)
    subsets = [np.arange(mesh.triangle_count)]
    for _ in range(8):
        subsets.append(np.nonzero(rng.random(mesh.triangle_count) < 0.5)[0])
    for sub in subsets:
        lhs = wedge(mesh, diff, diff_form, sub)
        rhs = float(mesh.areas[sub] @ np.sum(diff_form[sub] ** 2, axis=1))
        assert lhs >= c * rhs - 1e-15


# ---------------------------------------------------------------------------
# summation by parts


def test_summation_by_parts(square4):
    # with the scalar vanishing on the boundary the bulk wedge equals the
    # negated circulation pairing, exactly
    rng = np.random.default_rng(43)
    form = rng.standard_normal((square4.triangle_count, 2))
    scalar = rng.standard_normal(square4.vertex_count)
    scalar[square4.vertex_class != INTERIOR] = 0.0
    lhs = wedge(square4, scalar, form)
    rhs = -float(np.sum(scalar * circulations(square4, form)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_wedge_bound_for_near_closed_form(solved_pair):
    # against the flux form of a solution the wedge of any boundary
    # supported perturbation is bounded by the worst loop defect
    mesh, v, _ = solved_pair
    form = flux_form(mesh, v)
    rng = np.random.default_rng(47)
    scalar = rng.standard_normal(mesh.vertex_count)
    scalar[mesh.vertex_class != INTERIOR] = 0.0
    bound = max_interior_circulation(mesh, form) * np.abs(scalar).sum()
    assert abs(wedge(mesh, scalar, form)) <= bound + 1e-15


# ---------------------------------------------------------------------------
# potentials


def test_integrate_potential_recovers_vertex_field(square4):
    f = np.sin(square4.vertices[:, 0] * 2.0) + square4.vertices[:, 1]
    form = gradient_form(square4, f)
    u = integrate_potential(square4, form)
    np.testing.assert_allclose(u, f - f[0], atol=1e-12)
    np.testing.assert_allclose(p1_gradient(square4, u), form, atol=1e-12)


def test_integrate_potential_annulus_rejected(annulus_coarse):
    form = np.zeros((annulus_coarse.triangle_count, 2))
    with pytest.raises(TopologyError):
        integrate_potential(annulus_coarse, form)


def test_integrate_potential_nonclosed_rejected(square4):
    with pytest.raises(ClosednessError):
        integrate_potential(square4, rotational_form(square4))


def test_integrate_potential_tolerance_gate(square4):
    # the same form passes when the caller accepts the defect
    u = integrate_potential(square4, rotational_form(square4),
                            closedness_tol=1e6)
    assert u[0] == 0.0
    assert np.isfinite(u).all()


# ---------------------------------------------------------------------------
# counters


def test_circle_piece_count_is_pinned():
    # a counter, not a timing: an algorithmic change to clipping moves it
    mesh = build_annulus(1.0, 4.0, 0.1)
    tri, _, _ = polyline_pieces(mesh, circle_polyline(2.5, 0.05))
    assert len(tri) == 1315
