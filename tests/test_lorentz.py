import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsurf import (
    Evaluation,
    SpacelikeError,
    build_rectangle,
    coercivity_constant,
    energy,
    flux_coeffs,
    flux_gap_sq,
    flux_monotonicity,
    normalized_gradient,
    residual,
    sample_coercivity,
    tangent_matrix,
)
from maxsurf.lorentz import LIGHTLIKE_GUARD, _spacelike, _spacelike_density
from maxsurf.solver import SIGMA_MIN
from oracles import (area_density, c1, c2, minkowski_inner, normal_gap_sq,
                     r_max, unit_normal)

G1 = np.array([0.6, 0.0])
G2 = np.array([0.0, 0.0])
G3 = np.array([-0.6, 0.0])


def polar(r, theta):
    return np.array([r * math.cos(theta), r * math.sin(theta)])


gradients = st.builds(
    polar,
    st.floats(0.0, 0.9),
    st.floats(0.0, 2.0 * math.pi),
)


def mp_pairing(g, g2):
    """High-precision (g - g').(g/w - g'/w') for cross-checking."""
    with mpmath.workdps(50):
        g = [mpmath.mpf(x) for x in g]
        g2 = [mpmath.mpf(x) for x in g2]
        w = mpmath.sqrt(1 - g[0] ** 2 - g[1] ** 2)
        w2 = mpmath.sqrt(1 - g2[0] ** 2 - g2[1] ** 2)
        return float(sum((a - b) * (a / w - b / w2) for a, b in zip(g, g2)))


# ----------------------------------------------------------------------
# pointwise values
# ----------------------------------------------------------------------


def test_area_density_values():
    assert area_density(np.zeros(2)) == 1.0
    assert area_density(G1) == pytest.approx(0.8, rel=1e-14)


def test_area_density_rejects_lightlike():
    with pytest.raises(SpacelikeError) as err:
        area_density(np.array([1.0, 0.0]))
    assert err.value.norm == pytest.approx(1.0)


def at_gradient(fn):
    # one gradient (|g|, 0)
    return lambda norm: fn(np.array([norm, 0.0]))


def at_slope(fn):
    # the field |g| x on a grid: every triangle gradient is (|g|, 0)
    def call(norm):
        mesh = build_rectangle(1.0, 1.0, 0.25)
        return fn(mesh, Evaluation(mesh, norm * mesh.vertices[:, 0],
                                   "lorentz"))
    return call


# pointwise algebra: margin LIGHTLIKE_GUARD = 1e-14; the solver: margin
# SIGMA_MIN = 1e-8, which keeps Newton iterates off the light cone.  Both
# raise where the one light-cone test, lorentz._spacelike, is false
GUARD_CASES = [
    (area_density, at_gradient, 5e-15, 1e-13),
    (flux_coeffs, at_gradient, 5e-15, 1e-13),
    (normalized_gradient, at_gradient, 5e-15, 1e-13),
    (unit_normal, at_gradient, 5e-15, 1e-13),
    (residual, at_slope, 1e-9, 1e-7),
    (energy, at_slope, 1e-9, 1e-7),
    (tangent_matrix, at_slope, 1e-9, 1e-7),
]


@pytest.mark.parametrize("fn, at, raise_gap, accept_gap", GUARD_CASES,
                         ids=[case[0].__name__ for case in GUARD_CASES])
def test_spacelike_guard_boundary(fn, at, raise_gap, accept_gap):
    call = at(fn)
    with pytest.raises(SpacelikeError):
        call(1.0 - raise_gap)
    call(1.0 - accept_gap)  # does not raise


@pytest.mark.parametrize("gap", sorted({gap for _, _, *gaps in GUARD_CASES
                                         for gap in gaps}))
def test_spacelike_is_false_exactly_where_the_density_raises(gap):
    mesh = build_rectangle(1.0, 1.0, 0.25)
    v = (1.0 - gap) * mesh.vertices[:, 0]
    ev = Evaluation(mesh, v, "lorentz")
    for margin, spacelike, density in [
            (SIGMA_MIN, ev.spacelike(SIGMA_MIN), lambda: ev.density),
            (LIGHTLIKE_GUARD, _spacelike(ev.norm2, LIGHTLIKE_GUARD),
             lambda: _spacelike_density(ev.norm2, LIGHTLIKE_GUARD))]:
        assert spacelike == (gap > margin)
        if spacelike:
            density()  # does not raise
        else:
            with pytest.raises(SpacelikeError):
                density()
    # no light cone in the Euclidean metric, not even for timelike slopes
    for slope in (1.0 - gap, 2.0):
        euclid = Evaluation(mesh, slope * mesh.vertices[:, 0], "euclid")
        assert euclid.spacelike(SIGMA_MIN)
        assert euclid.spacelike(LIGHTLIKE_GUARD)


def test_flux_coeffs_values():
    np.testing.assert_array_equal(flux_coeffs(np.zeros(2)), [0.0, 0.0])
    np.testing.assert_allclose(flux_coeffs(G1), [0.0, 0.75], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(flux_coeffs(np.array([0.0, 0.6])), [-0.75, 0.0],
                               rtol=1e-14, atol=1e-15)


@settings(max_examples=200)
@given(g=gradients)
def test_flux_coeffs_norm_identity(g):
    p, q = flux_coeffs(g)
    n2 = float(g @ g)
    assert p * p + q * q == pytest.approx(n2 / (1.0 - n2), rel=1e-10, abs=1e-12)


def test_pairing_values():
    assert flux_monotonicity(G1, G1) == 0.0
    assert flux_monotonicity(G1, G2) == pytest.approx(0.45, rel=1e-14)
    assert flux_monotonicity(G1, G3) == pytest.approx(1.8, rel=1e-14)


def test_pairing_against_high_precision():
    for g, g2 in ((G1, G2), (G1, G3), (polar(0.83, 1.2), polar(0.4, -2.0))):
        assert flux_monotonicity(g, g2) == pytest.approx(mp_pairing(g, g2), rel=1e-13)


def test_gap_values():
    assert flux_gap_sq(G1, G1) == 0.0
    assert flux_gap_sq(G1, G2) == pytest.approx(0.5625, rel=1e-14)
    assert flux_gap_sq(G1, G3) == pytest.approx(2.25, rel=1e-14)
    assert normal_gap_sq(G1, G2) == pytest.approx(0.5, rel=1e-14)


def test_unit_normal_is_timelike_unit():
    for g in (G1, polar(0.9, 0.3), np.zeros(2)):
        n = unit_normal(g)
        assert minkowski_inner(n, n) == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(unit_normal(G1), [-0.75, 0.0, 1.25], rtol=1e-14)


def test_spacelike_point_consistency():
    w = float(area_density(G1))
    x = normalized_gradient(G1)
    n = unit_normal(G1)
    assert 0.0 < w <= 1.0
    assert w == pytest.approx(0.8, rel=1e-14)
    np.testing.assert_allclose(x, [0.75, 0.0], rtol=1e-14)
    assert 1.0 / w == pytest.approx(math.sqrt(1.0 + x @ x), rel=1e-12)
    assert minkowski_inner(n, n) == pytest.approx(-1.0, abs=1e-12)


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------


@settings(max_examples=300)
@given(g=gradients, g2=gradients)
def test_pairing_equals_half_density_sum_times_gap(g, g2):
    lhs = flux_monotonicity(g, g2)
    w = area_density(g)
    w2 = area_density(g2)
    gap = normal_gap_sq(g, g2)
    assert abs(lhs - 0.5 * (w + w2) * gap) <= 1e-12 * max(1.0, lhs)


@settings(max_examples=300)
@given(g=gradients, g2=gradients)
def test_normal_gap_is_minkowski_square(g, g2):
    d = unit_normal(g) - unit_normal(g2)
    assert normal_gap_sq(g, g2) == pytest.approx(minkowski_inner(d, d), abs=1e-12)


@settings(max_examples=300)
@given(g=gradients, g2=gradients)
def test_pairing_nonnegative(g, g2):
    assert flux_monotonicity(g, g2) >= -1e-14


@settings(max_examples=300)
@given(g=gradients, g2=gradients)
def test_coercivity_pointwise(g, g2):
    eps = 1.0 - max(np.linalg.norm(g), np.linalg.norm(g2))
    c = coercivity_constant(eps)
    lhs = flux_monotonicity(g, g2)
    rhs = flux_gap_sq(g, g2)
    assert lhs >= c * rhs * (1.0 - 1e-9) - 1e-15
    # the two factors of the chain hold separately
    assert 0.5 * (area_density(g) + area_density(g2)) >= c1(eps) * (1.0 - 1e-12)
    assert normal_gap_sq(g, g2) >= c2(eps) * rhs * (1.0 - 1e-9) - 1e-15


def test_normalized_gradient_bounded_by_r_max():
    eps = 0.25
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = polar(rng.uniform(0.0, 1.0 - eps), rng.uniform(0.0, 2.0 * math.pi))
        assert np.linalg.norm(normalized_gradient(g)) <= r_max(eps) + 1e-12


def test_angle_factor_bounded_below():
    # 1 - ((|x|+|x'|)/(W+W'))^2 >= c2 whenever both normalized gradients
    # stay inside radius r_max, with equality in the limit |x|=|x'|=r_max
    eps = 0.25
    rng = np.random.default_rng(9)

    def factor(nx, nxp):
        ww = math.sqrt(1.0 + nx * nx) + math.sqrt(1.0 + nxp * nxp)
        return 1.0 - ((nx + nxp) / ww) ** 2

    for _ in range(500):
        nx, nxp = rng.uniform(0.0, r_max(eps), size=2)
        assert factor(nx, nxp) >= c2(eps) * (1.0 - 1e-12)
    assert factor(r_max(eps), r_max(eps)) == pytest.approx(c2(eps), rel=1e-12)


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def test_constants_closed_forms():
    assert c1(0.4) == pytest.approx(0.8, rel=1e-14)
    assert c2(0.4) == pytest.approx(0.64, rel=1e-14)
    assert coercivity_constant(0.4) == pytest.approx(0.512, rel=1e-14)
    assert c1(0.4) * c2(0.4) == pytest.approx(0.512, rel=1e-14)
    assert r_max(0.4) == pytest.approx(0.75, rel=1e-14)
    assert coercivity_constant(0.1) == pytest.approx(0.0828, abs=5e-5)
    assert coercivity_constant(0.5) == pytest.approx(0.6495, abs=5e-5)


def test_constants_degenerate_margin():
    assert (c1(1.0), c2(1.0), coercivity_constant(1.0), r_max(1.0)) \
        == (1.0, 1.0, 1.0, 0.0)


def test_constants_reject_bad_eps():
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            coercivity_constant(eps)


def test_constants_monotone_in_eps():
    eps = np.linspace(0.01, 1.0, 60)
    for constant in (c1, c2, coercivity_constant):
        seq = [constant(e) for e in eps]
        assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
    r = [r_max(e) for e in eps]
    assert all(a >= b - 1e-15 for a, b in zip(r, r[1:]))


def test_grid_search_confirms_constant():
    # independent sweep over (|g|, |g'|, angle); the closed form is a lower
    # bound everywhere and nearly attained at the rim
    eps = 0.3
    c = coercivity_constant(eps)
    rr = np.linspace(0.0, 1.0 - eps, 60)
    th = np.linspace(0.0, math.pi, 60)
    best = np.inf
    for r1 in rr:
        g = np.zeros((60, 60, 2))
        g[..., 0] = r1
        g2 = np.empty((60, 60, 2))
        g2[..., 0] = rr[:, None] * np.cos(th)[None, :]
        g2[..., 1] = rr[:, None] * np.sin(th)[None, :]
        w = np.sqrt(1.0 - np.sum(g * g, axis=-1))
        w2 = np.sqrt(1.0 - np.sum(g2 * g2, axis=-1))
        d = g / w[..., None] - g2 / w2[..., None]
        rhs = np.sum(d * d, axis=-1)
        lhs = np.sum((g - g2) * d, axis=-1)
        mask = rhs > 1e-20
        if mask.any():
            best = min(best, float((lhs[mask] / rhs[mask]).min()))
    assert best >= c * (1.0 - 1e-12)
    assert best <= 2.0 * c


# ----------------------------------------------------------------------
# randomized certification
# ----------------------------------------------------------------------


def test_sample_coercivity_no_violations():
    rep = sample_coercivity(0.3, 20_000, seed=1)
    assert rep.violations == 0
    assert rep.min_ratio >= rep.c


def test_sample_coercivity_degenerate_eps():
    rep = sample_coercivity(1.0, 100, seed=0)
    assert rep.min_ratio == math.inf
    assert rep.violations == 0


def test_sample_coercivity_deterministic():
    a = sample_coercivity(0.2, 5_000, seed=7)
    b = sample_coercivity(0.2, 5_000, seed=7)
    assert a == b
    c = sample_coercivity(0.2, 5_000, seed=8)
    assert c.min_ratio != a.min_ratio


def test_sample_coercivity_validation():
    with pytest.raises(ValueError):
        sample_coercivity(0.2, 0, seed=0)
    with pytest.raises(ValueError):
        sample_coercivity(-0.5, 100, seed=0)


def test_report_record_keys():
    rep = sample_coercivity(0.5, 1_000, seed=0)
    keys = [k for k, _ in rep.record_items()]
    assert keys == ["eps", "C", "n_samples", "seed", "min_ratio", "violations"]
    assert [v for _, v in rep.record_items()] == [
        rep.eps, rep.c, rep.n_samples, rep.seed, rep.min_ratio, rep.violations]
