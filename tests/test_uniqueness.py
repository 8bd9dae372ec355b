"""Level regions, flux scans, the Riccati comparison, and strip decay."""

import math
import sys
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxsurf import (
    ARTIFICIAL,
    DIRICHLET,
    DecayTable,
    Mesh,
    NonConvergenceError,
    blowup_radius,
    build_annulus,
    build_rectangle,
    comparison_verdict,
    coercivity_constant,
    flux_form,
    flux_scan,
    level_region,
    perturbation_decay,
    radial_grid,
    riccati_comparison,
    save_scan,
    solve,
)
import maxsurf.solver
from maxsurf.records import read_csv
from maxsurf.uniqueness import (
    DECAY_HEADER,
    FOUR_PI,
    FluxScan,
    LevelRegion,
    ODE_SAMPLES,
    SCAN_HEADER,
    _riccati_y,
)

from oracles import gradient_margin, riccati_rk4


# ---------------------------------------------------------------------------
# level region


def test_level_region_of_tilted_plane(square4):
    v = 0.8 * square4.vertices[:, 0]
    vp = np.zeros(square4.vertex_count)
    region = level_region(square4, v, vp)
    assert not region.empty
    assert region.delta == pytest.approx(0.2, rel=1e-15)
    # vertex values of the difference sit on multiples of 0.2; the midpoint
    # 0.5 of the candidate window clears them by the full 0.1
    assert region.a == pytest.approx(0.5, rel=1e-12)
    assert region.clearance == pytest.approx(0.1, rel=1e-12)
    # membership is decided at centroids
    assert square4.centroids[region.triangles, 0].min() > 0.625
    scan = flux_scan(square4, v, vp, region, radial_grid(square4, region))
    assert scan.eps_hat == pytest.approx(0.2, abs=1e-12)


def test_level_offset_stays_in_window(annulus_coarse):
    v = 0.6 * annulus_coarse.vertices[:, 0]
    vp = np.zeros(annulus_coarse.vertex_count)
    region = level_region(annulus_coarse, v, vp)
    assert 2.0 * region.delta <= region.a <= 3.0 * region.delta
    assert region.delta == pytest.approx(0.3, rel=1e-15)


def test_level_tie_takes_smallest_candidate():
    mesh = build_rectangle(1.0, 1.0, 0.5)
    v = np.zeros(mesh.vertex_count)
    v[int(np.argmin(np.linalg.norm(mesh.vertices - [1.0, 1.0], axis=1)))] = 1.0
    v[int(np.argmin(np.linalg.norm(mesh.vertices - [0.5, 0.5], axis=1)))] = 0.625
    # clearance peaks at both window ends; the scan keeps the first
    region = level_region(mesh, v, np.zeros(mesh.vertex_count))
    assert region.delta == pytest.approx(0.25, rel=1e-15)
    assert region.a == pytest.approx(0.5, rel=1e-12)


def test_level_region_constant_difference_covers_mesh(square4):
    vp = 0.1 * square4.vertices[:, 1]
    region = level_region(square4, vp + 4.0, vp)
    assert region.delta == pytest.approx(1.0, rel=1e-15)
    assert 2.0 <= region.a <= 3.0
    assert len(region.triangles) == square4.triangle_count
    scan = flux_scan(square4, vp + 4.0, vp, region,
                     radial_grid(square4, region))
    assert scan.eps_hat == pytest.approx(0.9, abs=1e-12)


def test_level_region_empty_when_not_above(square4):
    v = -square4.vertices[:, 0]
    region = level_region(square4, v, np.zeros(square4.vertex_count))
    assert region.empty
    assert region.delta <= 0.0


def test_level_region_empty_for_corner_spike(square4):
    # a difference concentrated at one vertex puts every centroid below the
    # level even though sup(v - v') is large
    v = np.zeros(square4.vertex_count)
    v[0] = 1.0
    region = level_region(square4, v, np.zeros(square4.vertex_count))
    assert region.a == pytest.approx(0.5, rel=1e-12)
    assert region.clearance == pytest.approx(0.5, rel=1e-12)
    assert region.empty


def test_level_region_sits_in_deep_interior():
    # a pair sharing true-boundary data differs only near the artificial
    # ring, so the region stays deeper than delta from the true boundary,
    # the inner ring r = 1
    mesh = build_annulus(1.0, 4.0, 0.2, artificial_rings=("outer",))
    ends = mesh.vertex_class == ARTIFICIAL
    bc1 = np.zeros(mesh.vertex_count)
    bc1[ends] = -1.0
    v, rep0 = solve(mesh, np.zeros(mesh.vertex_count))
    vp, rep1 = solve(mesh, bc1)
    assert rep0.converged and rep1.converged
    region = level_region(mesh, v, vp)
    assert not region.empty
    members = np.unique(mesh.triangles[region.triangles])
    depth = np.linalg.norm(mesh.vertices[members], axis=1) - 1.0
    assert depth.min() > region.delta
    # restricting to the region cannot shrink the measured margin
    scan = flux_scan(mesh, v, vp, region, radial_grid(mesh, region))
    whole = min(gradient_margin(mesh, v), gradient_margin(mesh, vp))
    assert scan.eps_hat >= whole * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# radial grid


def annulus_region(mesh):
    v = 0.6 * mesh.vertices[:, 0]
    return v, np.zeros(mesh.vertex_count), level_region(
        mesh, v, np.zeros(mesh.vertex_count))


def test_radial_grid_geometric(annulus_coarse):
    _, _, region = annulus_region(annulus_coarse)
    grid = radial_grid(annulus_coarse, region)
    rad = np.linalg.norm(annulus_coarse.centroids[region.triangles], axis=1)
    assert grid[0] == pytest.approx(rad.min() * 1.1, rel=1e-15)
    assert grid[-1] <= rad.max()
    assert grid[-1] * 1.1 > rad.max()
    np.testing.assert_allclose(np.diff(np.log(grid)), math.log(1.1),
                               rtol=1e-12)


def test_radial_grid_single_radius(annulus_coarse):
    _, _, region = annulus_region(annulus_coarse)
    t = int(region.triangles[0])
    narrow = LevelRegion(a=region.a, delta=region.delta,
                         triangles=np.array([t], dtype=np.int64),
                         clearance=region.clearance)
    grid = radial_grid(annulus_coarse, narrow)
    r = float(np.linalg.norm(annulus_coarse.centroids[t]))
    np.testing.assert_allclose(grid, [r], rtol=1e-15)


def test_radial_grid_validation(square4, annulus_coarse):
    empty = LevelRegion(a=0.0, delta=0.0,
                        triangles=np.empty(0, dtype=np.int64),
                        clearance=math.nan)
    with pytest.raises(ValueError, match="empty"):
        radial_grid(square4, empty)
    _, _, region = annulus_region(annulus_coarse)
    # just above 1 the grid would need billions of radii
    for bad in (1.0, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match="ratio"):
            radial_grid(annulus_coarse, region, ratio=bad)


def test_radial_grid_rejects_origin():
    # an equilateral triangle centered on the origin: the only circle
    # through its centroid has radius zero
    s = math.sqrt(3.0) / 2.0
    v = np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]])
    t = np.array([[0, 1, 2]])
    c = np.full(3, DIRICHLET, dtype=np.int8)
    mesh = Mesh(v, t, c, h=2.0)
    region = LevelRegion(a=0.1, delta=0.1,
                         triangles=np.array([0], dtype=np.int64),
                         clearance=0.1)
    with pytest.raises(ValueError, match="origin"):
        radial_grid(mesh, region)


def looped_grid(start, r_hi, ratio, cap):
    """The grid as a loop of products builds it, or None past cap radii."""
    out = [start]
    while out[-1] * ratio <= r_hi:
        if len(out) == cap:
            return None
        out.append(out[-1] * ratio)
    return out


@settings(max_examples=200, deadline=None)
@given(ratio=st.floats(1.0, 2.0, exclude_min=True))
def test_radial_grid_matches_the_product_loop(annulus_coarse, ratio):
    _, _, region = annulus_region(annulus_coarse)
    rad = np.linalg.norm(annulus_coarse.centroids[region.triangles], axis=1)
    start, r_hi = rad.min() * ratio, rad.max()
    expected = looped_grid(start, r_hi, ratio, len(region.triangles) + 1)
    if start >= r_hi:
        expected = [0.5 * (rad.min() + r_hi)]
    if expected is None or len(expected) > len(region.triangles):
        with pytest.raises(ValueError, match="radii, more than"):
            radial_grid(annulus_coarse, region, ratio=ratio)
    else:
        np.testing.assert_array_equal(
            radial_grid(annulus_coarse, region, ratio=ratio), expected)


# ---------------------------------------------------------------------------
# flux scan


def test_flux_scan_constant_difference_form(annulus_coarse):
    # v - v' affine: the difference form is constant, so every line and
    # area quantity reduces to lengths and areas of the clipped geometry
    v, vp, region = annulus_region(annulus_coarse)
    grid = radial_grid(annulus_coarse, region)
    scan = flux_scan(annulus_coarse, v, vp, region, grid)
    assert scan.r0 == grid[0]
    assert scan.c_eps == pytest.approx(coercivity_constant(0.4), rel=1e-11)
    active = scan.length > 0.0
    assert active.any()
    np.testing.assert_allclose(scan.eta[active] / scan.length[active], 0.75,
                               rtol=1e-12)
    np.testing.assert_allclose(scan.sq_line[active] / scan.length[active],
                               0.5625, rtol=1e-12)
    # Cauchy-Schwarz holds with equality for a constant-norm form
    np.testing.assert_allclose(scan.eta ** 2, scan.length * scan.sq_line,
                               atol=1e-13)


def test_flux_scan_is_exact_for_affine_fields(annulus_coarse):
    # affine v and v' over the whole annulus: alpha is constant, so each
    # full circle gives length 2 pi r and eta |alpha| 2 pi r
    x, y = annulus_coarse.vertices.T
    v = 0.5 * x - 0.2 * y + 0.3
    vp = -0.1 * x + 0.25 * y
    region = LevelRegion(a=0.1, delta=1.0,
                         triangles=np.arange(annulus_coarse.triangle_count),
                         clearance=0.0)
    radii = np.array([1.15, 1.5, 1.83])
    scan = flux_scan(annulus_coarse, v, vp, region, radii)
    alpha = (flux_form(annulus_coarse, v) - flux_form(annulus_coarse, vp))[0]
    np.testing.assert_allclose(scan.length, 2.0 * np.pi * radii, rtol=1e-12)
    np.testing.assert_allclose(
        scan.eta, np.hypot(*alpha) * 2.0 * np.pi * radii, rtol=1e-12)


def test_flux_scan_energy_matches_area_integral(annulus_coarse):
    v, vp, region = annulus_region(annulus_coarse)
    grid = radial_grid(annulus_coarse, region)
    scan = flux_scan(annulus_coarse, v, vp, region, grid)
    alpha = flux_form(annulus_coarse, v) - flux_form(annulus_coarse, vp)
    rad = np.linalg.norm(annulus_coarse.centroids[region.triangles], axis=1)
    for k, r in enumerate(grid):
        inside = region.triangles[rad <= r + 1e-12]
        direct = float(annulus_coarse.areas[inside]
                       @ np.sum(alpha[inside] ** 2, axis=1))
        assert scan.energy[k] == pytest.approx(direct, rel=1e-12)


def test_flux_scan_reported_inequality(annulus_coarse):
    v, vp, region = annulus_region(annulus_coarse)
    grid = radial_grid(annulus_coarse, region)
    scan = flux_scan(annulus_coarse, v, vp, region, grid)
    assert scan.mu == pytest.approx(scan.c_eps * scan.energy[0], rel=1e-15)
    assert scan.mu > 0.0
    np.testing.assert_array_equal(
        scan.lhs, scan.mu + scan.c_eps * (scan.energy - scan.energy[0]))
    np.testing.assert_array_equal(scan.rhs, 2.0 * region.delta * scan.eta)
    np.testing.assert_array_equal(
        scan.flags, scan.lhs > scan.rhs * (1.0 + scan.tol_rel))


def test_flux_scan_validation(square4, annulus_coarse):
    v, vp, region = annulus_region(annulus_coarse)
    empty = LevelRegion(a=0.0, delta=0.0,
                        triangles=np.empty(0, dtype=np.int64),
                        clearance=math.nan)
    with pytest.raises(ValueError, match="nonempty"):
        flux_scan(annulus_coarse, v, vp, empty, [1.5])
    for bad in ([], [1.5, 1.5], [-1.0, 1.5]):
        with pytest.raises(ValueError, match="radii"):
            flux_scan(annulus_coarse, v, vp, region, bad)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_rel"):
            flux_scan(annulus_coarse, v, vp, region, [1.5, 1.8], tol_rel=bad)
    # radii far inside the region's innermost centroid enclose no energy
    with pytest.raises(ValueError, match="anchor"):
        flux_scan(annulus_coarse, v, vp, region, [1.01, 1.02])


def test_comparison_takes_one_gradient_per_field(annulus_coarse, monkeypatch):
    # the chain after the solves differentiates v and v' once each, through
    # whichever module it reaches p1_gradient
    calls = []
    original = maxsurf.solver.p1_gradient

    def counted(mesh, values):
        calls.append(1)
        return original(mesh, values)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "maxsurf" and \
                getattr(module, "p1_gradient", None) is original:
            monkeypatch.setattr(module, "p1_gradient", counted)
    v = 0.6 * annulus_coarse.vertices[:, 0]
    vp = np.zeros(annulus_coarse.vertex_count)
    region = level_region(annulus_coarse, v, vp)
    flux_scan(annulus_coarse, v, vp, region,
              radial_grid(annulus_coarse, region))
    assert len(calls) == 2


def test_save_scan_round_trip(annulus_coarse, tmp_path):
    v, vp, region = annulus_region(annulus_coarse)
    grid = radial_grid(annulus_coarse, region)
    scan = flux_scan(annulus_coarse, v, vp, region, grid)
    path = tmp_path / "scan.csv"
    save_scan(scan, path)
    data = read_csv(path, SCAN_HEADER)
    np.testing.assert_array_equal(data[:, 0], scan.radii)
    np.testing.assert_array_equal(data[:, 1], scan.eta)
    np.testing.assert_array_equal(data[:, 3], scan.lhs)
    np.testing.assert_array_equal(data[:, 5], scan.flags.astype(float))


# ---------------------------------------------------------------------------
# Riccati comparison


def test_blowup_radius_value():
    got = blowup_radius(1.0, 1.0, 0.1, 1.0)
    assert got == pytest.approx(math.exp(0.16 * math.pi), rel=1e-15)
    assert got == pytest.approx(1.653104, abs=1e-6)


@given(st.floats(0.5, 2.0), st.floats(0.1, 2.0), st.floats(0.05, 0.5),
       st.floats(0.1, 1.0))
@settings(max_examples=60)
def test_blowup_radius_zeroes_inverse_solution(r0, mu, delta, c):
    # at r1 the closed-form reciprocal hits zero
    assume(16.0 * math.pi * delta * delta / (mu * c) < 600.0)
    r1 = blowup_radius(r0, mu, delta, c)
    with mpmath.workdps(50):
        inv = (4 * mpmath.mpf(delta) / mpmath.mpf(mu)
               - mpmath.mpf(c) / (4 * mpmath.pi * mpmath.mpf(delta))
               * mpmath.log(mpmath.mpf(r1) / mpmath.mpf(r0)))
        assert abs(inv) < 1e-14


def test_blowup_radius_monotone():
    base = blowup_radius(1.0, 0.4, 0.05, 0.5)
    assert blowup_radius(1.0, 0.4, 0.06, 0.5) > base
    assert blowup_radius(1.0, 0.5, 0.05, 0.5) < base
    assert blowup_radius(1.0, 0.4, 0.05, 0.6) < base


def test_blowup_radius_validation():
    with pytest.raises(ValueError, match="positive"):
        blowup_radius(1.0, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="overflow"):
        blowup_radius(1.0, 1.0, 10.0, 0.01)


# (r0, mu, delta, c) of the Riccati tests
RICCATI = (1.0, 0.4, 0.05, 0.5)


def y_at(t, params=RICCATI):
    """The closed-form Riccati solution at radii t, inf at and past r1."""
    return _riccati_y(np.asarray(t, dtype=float), *params)


def test_comparison_initial_value_and_slope():
    t, y = riccati_comparison(*RICCATI)
    assert t[0] == 1.0
    assert y[0] == pytest.approx(0.4 / 0.2, rel=1e-15)
    assert np.all(np.diff(y) > 0.0)
    np.testing.assert_array_equal(y, y_at(t))
    assert t[-1] == blowup_radius(*RICCATI) * (1.0 - 1e-6)
    # the reciprocal is affine in log radius with slope -C/(4 pi delta)
    slope = np.diff(1.0 / y) / np.diff(np.log(t))
    np.testing.assert_allclose(slope, -0.5 / (FOUR_PI * 0.05), rtol=1e-10)
    assert len(t) == ODE_SAMPLES


def test_closed_form_domain():
    r1 = blowup_radius(*RICCATI)
    vals = y_at([1.0, r1, 2.0 * r1])
    assert vals[0] == pytest.approx(2.0, rel=1e-15)
    assert np.isinf(vals[1]) and np.isinf(vals[2])


def test_rk4_tracks_closed_form():
    r1 = blowup_radius(*RICCATI)
    t_eval = np.geomspace(1.0, r1 * 0.99, 15)
    y_rk, blow = riccati_rk4(*RICCATI, t_eval)
    np.testing.assert_allclose(y_rk, y_at(t_eval), rtol=1e-8)
    assert 0.999 * r1 <= blow <= 1.001 * r1


def test_rk4_marks_post_blowup_samples_inf():
    r1 = blowup_radius(*RICCATI)
    y_rk, blow = riccati_rk4(*RICCATI, [1.0, 1.5 * r1])
    assert y_rk[0] == pytest.approx(2.0, rel=1e-10)
    assert np.isinf(y_rk[1])
    assert blow < 1.001 * r1


def test_rk4_validation():
    with pytest.raises(ValueError, match="positive"):
        riccati_rk4(1.0, -0.4, 0.05, 0.5, [1.0])
    with pytest.raises(ValueError, match="beyond r0"):
        riccati_rk4(1.0, 0.4, 0.05, 0.5, [0.5])
    with pytest.raises(ValueError, match="nondecreasing"):
        riccati_rk4(1.0, 0.4, 0.05, 0.5, [1.5, 1.2])


# ---------------------------------------------------------------------------
# verdict


def synthetic_scan(radii, eta, flags=None, delta=0.05, c=0.5, mu=0.4,
                   tol_rel=0.05):
    radii = np.asarray(radii, dtype=float)
    eta = np.asarray(eta, dtype=float)
    energy = np.full(len(radii), mu / c)
    lhs = mu + c * (energy - energy[0])
    rhs = 2.0 * delta * eta
    if flags is None:
        flags = lhs > rhs * (1.0 + tol_rel)
    zeros = np.zeros(len(radii))
    return FluxScan(r0=float(radii[0]), delta=delta, eps_hat=0.5, c_eps=c,
                    mu=mu, tol_rel=tol_rel, radii=radii, eta=eta,
                    energy=energy, lhs=lhs, rhs=rhs,
                    flags=np.asarray(flags, dtype=bool), length=zeros,
                    sq_line=zeros)


def test_verdict_consistent_past_blowup():
    radii = np.array([1.0, 1.3, 1.6, 1.9])
    eta = np.append(2.5 * y_at(radii[:3]), 100.0)
    scan = synthetic_scan(radii, eta)
    assert not scan.flags.any()
    verdict = comparison_verdict(scan)
    assert verdict.consistent
    assert verdict.first_fail_r == -1.0
    assert verdict.n_below_blowup == 3
    assert verdict.n_checked == 3 and verdict.n_holding == 3
    assert verdict.regime == "blowup_reached"
    assert verdict.truncation_ratio > 1.0


def test_verdict_reports_first_failure():
    radii = np.array([1.0, 1.3, 1.6, 1.9])
    eta = np.append(2.5 * y_at(radii[:3]), 100.0)
    eta[1] = 0.9 * y_at(1.3)
    scan = synthetic_scan(radii, eta, flags=np.zeros(4, dtype=bool))
    verdict = comparison_verdict(scan)
    assert not verdict.consistent
    assert verdict.first_fail_r == pytest.approx(1.3)
    assert verdict.n_holding == 2


def test_verdict_excludes_flagged_radii():
    # a radius where the scan inequality already failed does not count
    # against consistency, but its failure is still reported
    radii = np.array([1.0, 1.3, 1.6, 1.9])
    eta = np.append(2.5 * y_at(radii[:3]), 100.0)
    eta[1] = 0.9 * y_at(1.3)
    flags = np.array([False, True, False, False])
    verdict = comparison_verdict(synthetic_scan(radii, eta, flags=flags))
    assert verdict.consistent
    assert verdict.n_flagged == 1 and verdict.n_checked == 2
    assert verdict.first_fail_r == pytest.approx(1.3)


def test_verdict_with_everything_flagged_is_inconclusive():
    radii = np.array([1.0, 1.3, 1.6])
    eta = 2.5 * y_at(radii)
    flags = np.ones(3, dtype=bool)
    verdict = comparison_verdict(synthetic_scan(radii, eta, flags=flags))
    assert not verdict.consistent
    assert verdict.n_checked == 0


def test_verdict_truncated_regime():
    radii = np.array([1.0, 1.2, 1.4])
    verdict = comparison_verdict(synthetic_scan(radii, 2.5 * y_at(radii)))
    assert verdict.regime == "truncated"
    assert verdict.truncation_ratio == pytest.approx(
        1.4 / blowup_radius(*RICCATI))
    assert verdict.n_below_blowup == 3


def test_verdict_blowup_inside_anchor_is_inconclusive():
    # huge anchor energy collapses r1 onto r0: every scanned radius sits
    # at or past the blow-up and nothing is checkable
    mu = 16.0 * math.pi * 0.05 ** 2 / (0.5 * 1e-13)
    t, y = riccati_comparison(1.0, mu, 0.05, 0.5)
    assert blowup_radius(1.0, mu, 0.05, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert t[0] == 1.0 and np.isfinite(y).all()
    verdict = comparison_verdict(synthetic_scan([1.0, 1.5], [5.0, 5.0], mu=mu))
    assert verdict.n_below_blowup == 0
    assert verdict.n_checked == 0
    assert not verdict.consistent
    assert verdict.regime == "blowup_reached"


def test_verdict_record_keys():
    # made from the field order, with C for c
    verdict = comparison_verdict(synthetic_scan([1.0, 1.3], [5.0, 5.0]))
    items = verdict.record_items()
    assert [k for k, _ in items] == [
        "r0", "r1", "mu", "delta", "C", "n_radii", "n_below_blowup",
        "n_flagged", "n_checked", "n_holding", "consistent", "first_fail_r",
        "truncation_r", "truncation_ratio", "regime"]
    assert [v for _, v in items] == list(asdict(verdict).values())


@settings(max_examples=150, deadline=None)
@given(r0=st.floats(0.1, 10.0), mu=st.floats(0.05, 20.0),
       delta=st.floats(0.01, 1.0), c=st.floats(0.05, 2.0),
       cells=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.5, 2.0),
                                st.booleans()), min_size=1, max_size=12))
def test_verdict_reads_the_riccati_solution_of_its_scan(r0, mu, delta, c,
                                                        cells):
    # the verdict derives r1 and y from the scan alone; they are those of
    # the curve that riccati_comparison samples for the _ode.csv file
    exponent = 16.0 * math.pi * delta * delta / (mu * c)
    assume(exponent <= 300.0)
    # radii r0 (r1/r0)^f for f in [0, 2]: inside and beyond the blow-up
    cells = sorted(cells)
    fractions, factors, flags = (np.array(col) for col in zip(*cells))
    radii = r0 * np.exp(exponent * np.concatenate([[0.0], fractions[1:]]))
    assume(np.all(np.diff(radii) > 0.0))
    r1 = blowup_radius(r0, mu, delta, c)
    y = y_at(radii, (r0, mu, delta, c))
    t, y_ode = riccati_comparison(r0, mu, delta, c)
    np.testing.assert_array_equal(y_ode, y_at(t, (r0, mu, delta, c)))
    eta = np.where(np.isfinite(y), y, 1.0) * factors
    verdict = comparison_verdict(
        synthetic_scan(radii, eta, flags=flags, delta=delta, c=c, mu=mu))

    below = radii < r1 * (1.0 - 1e-12)
    holds = eta[below] >= y[below] * (1.0 - 1e-12)
    unflagged = ~flags[below]
    fails = radii[below][~holds]
    assert asdict(verdict) == {
        "r0": r0, "r1": r1, "mu": mu, "delta": delta, "c": c,
        "n_radii": len(radii), "n_below_blowup": int(below.sum()),
        "n_flagged": int(flags.sum()), "n_checked": int(unflagged.sum()),
        "n_holding": int(holds.sum()),
        "consistent": bool(unflagged.any() and holds[unflagged].all()),
        "first_fail_r": float(fails[0]) if len(fails) else -1.0,
        "truncation_r": float(radii[-1]),
        "truncation_ratio": float(radii[-1]) / r1,
        "regime": "truncated" if radii[-1] < r1 else "blowup_reached",
    }


# ---------------------------------------------------------------------------
# strip decay


def test_decay_table_predicate_and_save(tmp_path):
    table = DecayTable(lengths=np.array([4.0, 8.0, 16.0]),
                       diffs=np.array([0.3, 0.1, 0.01]),
                       iterations=np.array([3, 3, 4]))
    assert table.strictly_decreasing
    flat = DecayTable(lengths=np.array([4.0, 8.0]),
                      diffs=np.array([0.1, 0.1]),
                      iterations=np.array([3, 3]))
    assert not flat.strictly_decreasing
    path = tmp_path / "decay.csv"
    table.save(path)
    data = read_csv(path, DECAY_HEADER)
    np.testing.assert_array_equal(data[:, 0], table.lengths)
    np.testing.assert_array_equal(data[:, 1], table.diffs)


def test_perturbation_decay_validation():
    with pytest.raises(ValueError, match="length"):
        perturbation_decay([], s=1.0)
    with pytest.raises(ValueError, match="increasing"):
        perturbation_decay([4.0, 2.0], s=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        perturbation_decay([2.0, 4.0], s=-1.0)


def test_perturbation_decay_coarse_run():
    table = perturbation_decay([2.0, 4.0], s=1.0, h=0.5)
    assert table.strictly_decreasing
    assert np.all(table.diffs > 0.0)
    assert np.all(table.iterations > 0)


def test_perturbation_decay_zero_offset_is_exact():
    table = perturbation_decay([1.0, 2.0], s=0.0, h=0.5)
    np.testing.assert_array_equal(table.diffs, np.zeros(2))
    assert not table.strictly_decreasing


def test_perturbation_decay_euclid_metric():
    table = perturbation_decay([2.0], s=0.5, h=0.5, metric="euclid")
    assert table.diffs[0] > 0.0


def test_perturbation_decay_steep_ends_fail():
    # s/height beyond 2 pushes the end data past the gradient constraint
    with pytest.raises(NonConvergenceError, match="strip L=1"):
        perturbation_decay([1.0], s=20.0, h=0.5)
