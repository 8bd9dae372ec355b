"""Discrete 1-forms: circulations, circle arcs, potentials."""

import math
import tracemalloc

import numpy as np
import pytest

from maxsurf import (
    ClosednessError,
    Evaluation,
    INTERIOR,
    Mesh,
    TopologyError,
    build_annulus,
    build_rectangle,
    coercivity_constant,
    flux_form,
    integrate_potential,
    max_interior_circulation,
    p1_gradient,
    residual,
    solve,
)
from conftest import affine_field
from maxsurf.forms import _PotentialTree, circulations, polyline_pieces


def centred_square(h, dx=0.0):
    """[-1, 1]^2 triangulated with step h, shifted right by dx."""
    m = build_rectangle(2.0, 2.0, h)
    return Mesh(m.vertices - [1.0 - dx, 1.0], m.triangles, m.vertex_class, h)


@pytest.fixture(scope="module")
def square8c():
    return centred_square(1.0 / 8.0)


def upper_half(mesh):
    return np.flatnonzero(mesh.centroids[:, 1] > 0.0)


def rotational_form(mesh):
    # (-y, x) sampled at centroids; its circulation measures star area.
    c = mesh.centroids
    return np.stack([-c[:, 1], c[:, 0]], axis=1)


def gradient_form(mesh, values):
    return p1_gradient(mesh, values)


def line_integral(mesh, form, radius, triangles=None):
    """Counterclockwise integral of the form along the circle's arcs,
    exact per arc: the form dotted with the arc's chord."""
    tri, _, t0, t1 = polyline_pieces(mesh, [radius], triangles=triangles)
    return float(radius * np.sum(form[tri, 0] * (np.cos(t1) - np.cos(t0))
                                 + form[tri, 1] * (np.sin(t1) - np.sin(t0))))


def norm_line_integral(mesh, form, radius, triangles=None):
    """Arclength integral of |(p, q)| over the circle, as the scan's eta."""
    tri, _, t0, t1 = polyline_pieces(mesh, [radius], triangles=triangles)
    return float(np.linalg.norm(form[tri], axis=1) @ (radius * (t1 - t0)))


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
    # negated equation residual at that vertex; both are the solver's weak
    # divergence of the same flux, so they agree bit for bit.
    mesh, v, vp = solved_pair
    for field in (v, vp):
        circ = circulations(mesh, flux_form(mesh, field))
        res = residual(mesh, Evaluation(mesh, field, "lorentz"))
        np.testing.assert_array_equal(circ[mesh.interior_vertices], -res)


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
# line integrals over circle arcs


def test_line_integral_constant_form(square8c):
    form = np.tile([0.3, -0.2], (square8c.triangle_count, 1))
    # the upper semicircle runs from (r, 0) to (-r, 0)
    got = line_integral(square8c, form, 0.6, triangles=upper_half(square8c))
    assert got == pytest.approx(0.3 * -1.2, rel=1e-13)
    assert abs(line_integral(square8c, form, 0.6)) < 1e-14


def test_line_integral_of_gradient_telescopes(square8c):
    # for df the integral depends only on the endpoints
    f = affine_field(square8c, 0.4, -0.7, 0.2)
    form = gradient_form(square8c, f)
    got = line_integral(square8c, form, 0.55, triangles=upper_half(square8c))
    assert got == pytest.approx(0.4 * -1.1, rel=1e-12)


def test_line_integral_closed_loop_of_gradient():
    # a P1 field is affine on each arc's triangle and continuous across
    # edges, so its differential sums to zero around any circle
    mesh = centred_square(1.0 / 16.0)
    f = np.cos(mesh.vertices[:, 0] * 2.0) * mesh.vertices[:, 1]
    form = gradient_form(mesh, f)
    for radius in (0.3, 0.5, 0.77):
        assert abs(line_integral(mesh, form, radius)) < 1e-13


def test_polyline_pieces_partition_circle(square8c):
    # consecutive arcs meet at bit-identical angles and every arc's
    # midpoint lies in the triangle that owns it
    radius = 0.6
    tri, k, t0, t1 = polyline_pieces(square8c, [radius])
    assert np.all(k == 0)
    assert np.all(t1 > t0)
    order = np.argsort(t0)
    t0, t1, tri = t0[order], t1[order], tri[order]
    np.testing.assert_array_equal(t1[:-1], t0[1:])
    assert t1[-1] == pytest.approx(t0[0] + 2.0 * np.pi, abs=1e-14)
    mid = 0.5 * (t0 + t1)
    pts = radius * np.column_stack([np.cos(mid), np.sin(mid)])
    for t, m in zip(tri, pts):
        corners = square8c.vertices[square8c.triangles[t]]
        mat = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        lam = np.linalg.solve(mat, m - corners[0])
        assert lam[0] >= -1e-12 and lam[1] >= -1e-12
        assert lam.sum() <= 1.0 + 1e-12


@pytest.mark.parametrize("dx, radii", [
    # through vertices such as (0.5, 0), (3/8, 1/2) and (1/2, 1/2); the
    # unit circle touches the boundary at four vertices
    (0.0, [0.5, 0.625, math.sqrt(0.5), 1.0]),
    # tangent to the grid lines y = +-1/2 in the middle of an edge
    (1.0 / 16.0, [0.5]),
])
def test_circle_through_vertex_or_tangent_tiles(dx, radii):
    mesh = centred_square(1.0 / 8.0, dx)
    radii = np.asarray(radii)
    tri, k, t0, t1 = polyline_pieces(mesh, radii)
    length = np.bincount(k, weights=radii[k] * (t1 - t0))
    np.testing.assert_allclose(length, 2.0 * np.pi * radii, rtol=1e-12)


def test_tangent_edge_keeps_the_arc_at_any_rotation():
    # a kite whose middle edge touches the circle at the point where the
    # lower triangle's arc has its midpoint; rotated, the touch is decided
    # by rounding, and the arc must neither vanish nor double
    r, w, hgt = 0.5, 0.2, 0.3
    kite = np.array([[-w, r], [0.0, r - hgt], [w, r], [0.0, r + hgt]])
    # the circle leaves the lower triangle through the sides from (+-w, r)
    # to (0, r - hgt), at |x| = r
    t = np.roots([w * w + hgt * hgt, -2.0 * (w * w + r * hgt), w * w])
    t = float(t[(t > 0.0) & (t < 1.0)][0])
    expected = 2.0 * r * math.atan2(w * (1.0 - t), r - hgt * t)
    for phi in np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False):
        rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        mesh = Mesh(kite @ rot, [[0, 1, 2], [0, 2, 3]], [1, 1, 1, 1], h=0.4)
        tri, _, t0, t1 = polyline_pieces(mesh, [r])
        assert r * np.sum(t1 - t0) == pytest.approx(expected, rel=1e-12)
        # where rounding makes the circle cut the edge twice, the upper
        # triangle may own the sliver in between
        assert np.all((tri == 0) | (t1 - t0 < 1e-6))


def test_circle_inside_one_triangle_is_one_arc():
    mesh = Mesh([[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]], [[0, 1, 2]],
                [1, 1, 1], h=3.0)
    radii = np.array([0.1, 0.4])
    tri, k, t0, t1 = polyline_pieces(mesh, radii)
    np.testing.assert_array_equal(tri, [0, 0])
    np.testing.assert_array_equal(k, [0, 1])
    np.testing.assert_array_equal(t1 - t0, [2.0 * np.pi, 2.0 * np.pi])


def test_catenoid_flux_through_circle():
    mesh = build_annulus(1.0, 2.0, 0.1)
    v0 = np.arcsinh(np.linalg.norm(mesh.vertices, axis=1))
    v, report = solve(mesh, v0)
    assert report.converged
    # exact catenoid carries total flux 2*pi through any concentric circle;
    # midway between two rings of vertices a circle crosses the two halves
    # of every quad alike, and the closed discrete form carries one flux
    # there (on a ring the difference between the halves shows: -3% at 1.5)
    form = flux_form(mesh, v)
    flux = [line_integral(mesh, form, r) for r in (1.15, 1.55, 1.95)]
    assert flux[0] == pytest.approx(2.0 * np.pi, rel=2e-3)
    np.testing.assert_allclose(flux, flux[0], rtol=1e-9)


# ---------------------------------------------------------------------------
# norm line integrals over the arcs


def test_norm_line_integral_constant(square8c):
    form = np.tile([0.0, 0.75], (square8c.triangle_count, 1))
    for radius in (0.1, 0.6, 0.95):
        assert norm_line_integral(square8c, form, radius) == pytest.approx(
            0.75 * 2.0 * np.pi * radius, rel=1e-12)


def test_norm_bounds_line_integral(square8c):
    rng = np.random.default_rng(23)
    for _ in range(100):
        form = rng.standard_normal((square8c.triangle_count, 2))
        assert abs(line_integral(square8c, form, 0.6)) <= (
            norm_line_integral(square8c, form, 0.6) + 1e-12)


# ---------------------------------------------------------------------------
# clipping


def test_clip_keeps_inside_portion(square4):
    # the unit square holds a quarter of the circle about its corner
    form = np.tile([0.0, 1.0], (square4.triangle_count, 1))
    assert norm_line_integral(square4, form, 0.5) == pytest.approx(
        0.25 * np.pi, rel=1e-12)


def test_clip_to_triangle_subset(square8c):
    form = np.tile([0.0, 1.0], (square8c.triangle_count, 1))
    lower = np.flatnonzero(square8c.centroids[:, 1] < 0.0)
    got = norm_line_integral(square8c, form, 0.6, triangles=lower)
    assert got == pytest.approx(0.6 * np.pi, rel=1e-12)


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
    c = coercivity_constant(eps_hat)
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


def test_potential_tree_build_peak_per_triangle():
    # 96 bytes per triangle here at the peak, and the tree keeps 80: the
    # former build kept a (2, 3, T) table of corner offsets and the
    # mesh's neighbor table, 152, and peaked at 303 with (6, T) tables of
    # every corner pair
    mesh = build_rectangle(1.0, 1.0, 1.0 / 128)
    mesh.centroids, mesh.boundary_vertex_mask  # kept by the mesh
    tracemalloc.start()
    tree = _PotentialTree(mesh)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert "neighbors" not in mesh.__dict__
    assert kept <= 88 * mesh.triangle_count
    assert peak <= 106 * mesh.triangle_count
    del tree


# ---------------------------------------------------------------------------
# counters


def test_circle_piece_count_is_pinned():
    # a counter, not a timing: an algorithmic change to clipping moves it
    mesh = build_annulus(1.0, 4.0, 0.1)
    tri, _, _, _ = polyline_pieces(mesh, [2.5])
    assert len(tri) == 524
