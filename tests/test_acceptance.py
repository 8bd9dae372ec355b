"""End-to-end acceptance checks, one test per numbered criterion.

Each test appends a PASS or FAIL line to the section printed after the
run.  The lemma, affine, and flux-experiment runners write their output
files into a session directory so the determinism criterion can replay
them into a fresh one and compare bytes.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from mpmath import mp

from conftest import affine_field
from oracles import (area_density, minkowski_inner, normal_gap_sq,
                     riccati_rk4, unit_normal)
from maxsurf import (
    ARTIFICIAL,
    SolverConfig,
    blowup_radius,
    build_annulus,
    build_rectangle,
    coercivity_constants,
    comparison_verdict,
    flux_form,
    flux_monotonicity,
    flux_scan,
    gradient_margin,
    level_region,
    max_interior_circulation,
    perturbation_decay,
    radial_grid,
    riccati_comparison,
    round_trip_error,
    sample_coercivity,
    save_field,
    save_scan,
    solve,
)
from maxsurf.cli import ODE_HEADER
from maxsurf.records import write_csv, write_record

LEMMA_CASES = ((0.5, 100_000, 7), (0.1, 200_000, 11), (0.01, 1_000_000, 1))
AFFINE_COEFFS = (0.5, -0.3, 0.2)


@contextmanager
def criterion(log, number, title):
    notes = []
    try:
        yield notes.append
    except BaseException:
        log.append(f"FAIL criterion {number}: {title}")
        raise
    tail = f"  [{'; '.join(notes)}]" if notes else ""
    log.append(f"PASS criterion {number}: {title}{tail}")


# ----------------------------------------------------------------------
# runners; shared by the criteria and replayed by the determinism check
# ----------------------------------------------------------------------


def run_lemma(outdir):
    reports = []
    for eps, n_samples, seed in LEMMA_CASES:
        report = sample_coercivity(eps, n_samples, seed)
        write_record(outdir / f"lemma_eps{eps:g}.txt", report.record_items())
        reports.append(report)
    return reports


def run_affine(outdir):
    mesh = build_rectangle(1.0, 1.0, 1.0 / 64.0)
    exact = affine_field(mesh, *AFFINE_COEFFS)
    runs = {}
    for metric in ("lorentz", "euclid"):
        v, report = solve(mesh, exact, SolverConfig(metric=metric))
        save_field(mesh, v, outdir / f"affine_{metric}_solution.csv")
        write_record(outdir / f"affine_{metric}_report.txt",
                     report.record_items())
        runs[metric] = (mesh, v, report, float(np.abs(v - exact).max()))
    return runs


def run_flux_experiment(h, outdir=None):
    """Solve a pair sharing true boundary data but differing on the
    artificial outer ring, then run the comparison chain on the
    difference: level region, radial flux scan, blow-up verdict."""
    mesh = build_annulus(1.0, 4.0, h, artificial_rings=("outer",))
    artificial = mesh.vertex_class == ARTIFICIAL
    bc = np.zeros(mesh.vertex_count)
    bc_prime = np.zeros(mesh.vertex_count)
    bc_prime[artificial] = -1.0
    v, report = solve(mesh, bc)
    vp, report_p = solve(mesh, bc_prime)
    assert report.converged and report_p.converged
    region = level_region(mesh, v, vp)
    scan = flux_scan(mesh, v, vp, region, radial_grid(mesh, region))
    ode = riccati_comparison(scan.r0, scan.mu, scan.delta, scan.c_eps)
    verdict = comparison_verdict(scan, ode)
    if outdir is not None:
        tag = f"flux_h{h:g}"
        save_scan(scan, outdir / f"{tag}_scan.csv")
        write_csv(outdir / f"{tag}_ode.csv", ODE_HEADER, [ode.t, ode.y])
        write_record(outdir / f"{tag}_verdict.txt", verdict.record_items())
    return mesh, v, scan, ode, verdict


def ratio_grid_minimum(eps, resolution=200):
    """Brute-force floor of the monotonicity-to-gap ratio over polar
    coordinates (|g|, |g'|, angle), written against the raw formulas
    rather than the library so the two can disagree."""
    radii = np.linspace(0.0, 1.0 - eps, resolution)
    cos_angle = np.cos(np.linspace(0.0, math.pi, resolution))
    best = math.inf
    for r in radii:
        w = math.sqrt(1.0 - r * r)
        rp = radii[:, None]
        wp = np.sqrt(1.0 - rp * rp)
        dot = r * rp * cos_angle[None, :]
        lhs = r * r / w + rp * rp / wp - dot * (1.0 / w + 1.0 / wp)
        rhs = r * r / (w * w) + rp * rp / (wp * wp) - 2.0 * dot / (w * wp)
        good = rhs > 1e-20
        if np.any(good):
            best = min(best, float((lhs[good] / rhs[good]).min()))
    return best


def _disk_samples(rng, count, radius):
    out = np.empty((count, 2))
    have = 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - have), 2))
        cand = cand[np.sum(cand * cand, axis=1) < 1.0]
        take = min(len(cand), count - have)
        out[have:have + take] = cand[:take]
        have += take
    return radius * out


# ----------------------------------------------------------------------
# session fixtures caching the expensive runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def lemma_runs(out_dir):
    return run_lemma(out_dir)


@pytest.fixture(scope="session")
def affine_runs(out_dir):
    return run_affine(out_dir)


@pytest.fixture(scope="session")
def flux_fine(out_dir):
    return run_flux_experiment(0.05, out_dir)


@pytest.fixture(scope="session")
def flux_half():
    return run_flux_experiment(0.025)


@pytest.fixture(scope="session")
def catenoid_runs():
    runs = {}
    for h in (0.1, 0.05):
        mesh = build_annulus(1.0, 2.0, h)
        exact = np.arcsinh(np.linalg.norm(mesh.vertices, axis=1))
        v, report = solve(mesh, exact)
        assert report.converged
        runs[h] = (mesh, v, float(np.abs(v - exact).max()))
    return runs


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_1_coercivity_certificate(acceptance_log, lemma_runs):
    with criterion(acceptance_log, 1,
                   "sampled coercivity bound, confirmed by grid oracle") as note:
        for report in lemma_runs:
            bound = coercivity_constants(report.eps).c
            assert report.violations == 0
            assert report.min_ratio >= bound
            floor = ratio_grid_minimum(report.eps)
            assert floor >= bound
            note(f"eps={report.eps:g} min {report.min_ratio:.3f} "
                 f"grid {floor:.3f} bound {bound:.3f}")


def test_criterion_2_normal_identity_chain(acceptance_log):
    """The pointwise monotonicity expression equals half the sum of area
    densities times the squared normal gap, and unit normals square to -1."""
    with criterion(acceptance_log, 2,
                   "normal identity chain on random spacelike pairs") as note:
        rng = np.random.default_rng(2026)
        g = _disk_samples(rng, 100_000, 0.999)
        gp = _disk_samples(rng, 100_000, 0.999)
        lhs = flux_monotonicity(g, gp)
        pairing = 0.5 * (area_density(g) + area_density(gp)) \
            * normal_gap_sq(g, gp)
        budget = 1e-12 * np.maximum(1.0, lhs)
        gap = np.abs(lhs - pairing)
        assert np.all(gap <= budget)
        normal = unit_normal(g)
        norm_err = np.abs(minkowski_inner(normal, normal) + 1.0)
        assert norm_err.max() <= 1e-12
        note(f"identity gap {np.max(gap / budget):.1%} of budget, "
             f"|<n,n>+1| max {norm_err.max():.1e}")


def test_criterion_3_affine_exactness(acceptance_log, affine_runs):
    with criterion(acceptance_log, 3,
                   "affine data reproduced in both metrics") as note:
        for metric, (_, _, report, err) in affine_runs.items():
            assert report.converged
            assert report.iterations <= 2
            assert err <= 1e-9
            note(f"{metric}: {report.iterations} iterations, err {err:.1e}")


def test_criterion_4_catenoid_convergence(acceptance_log, catenoid_runs):
    with criterion(acceptance_log, 4,
                   "manufactured catenoid converges at second order") as note:
        ratio = catenoid_runs[0.1][2] / catenoid_runs[0.05][2]
        assert 3.0 <= ratio <= 5.0
        mesh, v, _ = catenoid_runs[0.05]
        margin = gradient_margin(mesh, v)
        target = 1.0 - 1.0 / math.sqrt(2.0)
        assert abs(margin - target) <= 0.2 * target
        note(f"error ratio {ratio:.2f}, margin {margin:.4f} vs {target:.4f}")


def test_criterion_5_solutions_have_closed_flux(acceptance_log, affine_runs,
                                                catenoid_runs):
    with criterion(acceptance_log, 5,
                   "flux form closed after converged solves") as note:
        tol = SolverConfig().residual_tol
        worst = 0.0
        for mesh, v in (affine_runs["lorentz"][:2], catenoid_runs[0.05][:2]):
            worst = max(worst,
                        max_interior_circulation(mesh, flux_form(mesh, v)))
        assert worst <= 10.0 * tol
        note(f"max circulation {worst:.1e} vs {10.0 * tol:.0e}")


def test_criterion_6_conjugate_round_trip(acceptance_log):
    with criterion(acceptance_log, 6,
                   "conjugate round trip second order, affine exact") as note:
        errs = {}
        for n in (32, 64):
            mesh = build_rectangle(1.0, 1.0, 1.0 / n)
            x, y = mesh.vertices.T
            u, report = solve(mesh, x * x - y * y,
                              SolverConfig(metric="euclid"))
            assert report.converged
            errs[n] = round_trip_error(mesh, u, direction="min2max")
        ratio = errs[32] / errs[64]
        assert 3.0 <= ratio <= 5.0
        mesh = build_rectangle(1.0, 1.0, 1.0 / 32.0)
        affine = affine_field(mesh, 0.4, 0.2, 0.1)
        worst = max(round_trip_error(mesh, affine, direction=d)
                    for d in ("min2max", "max2min"))
        assert worst <= 1e-12
        note(f"error ratio {ratio:.2f}, affine {worst:.1e}")


def test_criterion_7_flux_inequality_chain(acceptance_log, flux_fine,
                                           flux_half):
    with criterion(acceptance_log, 7,
                   "flux inequality chain on the separation experiment") as note:
        scan, scan_half = flux_fine[2], flux_half[2]
        assert scan.n_flagged == 0
        assert scan_half.n_flagged <= scan.n_flagged
        slack = 1.0 + 1e-12
        for s in (scan, scan_half):
            # per-radius Cauchy-Schwarz, then arclength <= full circle
            assert np.all(s.eta ** 2 <= s.length * s.sq_line * slack)
            assert np.all(s.length <= 2.0 * math.pi * s.radii * slack)
        drift = abs(scan_half.eps_hat - scan.eps_hat) / scan.eps_hat
        assert drift <= 0.2
        assert flux_fine[4].consistent
        assert flux_half[4].consistent
        note(f"flags {scan.n_flagged}/{scan_half.n_flagged}, "
             f"margin drift {drift:.1%}, mu {scan.mu:.3f}")


def test_criterion_8_blowup_radius_and_tracking(acceptance_log):
    with criterion(acceptance_log, 8,
                   "blow-up radius closed form and independent tracking") as note:
        mp.dps = 50
        rng = np.random.default_rng(8)
        worst_r1 = worst_track = worst_blow = 0.0
        accepted = 0
        while accepted < 100:
            r0 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            mu = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            delta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            c = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            if 16.0 * math.pi * delta * delta / (mu * c) > 50.0:
                continue
            # the sampled grid ends where y = 1/(k * 1e-6), k = c/(4 pi delta);
            # keep k under 0.9 so that endpoint sits past the 1e6 cutoff, where
            # double precision cannot pin a diverging solution to 1e-8
            if c >= 11.0 * delta:
                continue
            accepted += 1
            r1 = blowup_radius(r0, mu, delta, c)
            ref = mp.mpf(r0) * mp.exp(
                16 * mp.pi * mp.mpf(delta) ** 2 / (mp.mpf(mu) * mp.mpf(c)))
            worst_r1 = max(worst_r1, abs(r1 - float(ref)) / float(ref))
            ode = riccati_comparison(r0, mu, delta, c)
            y_num, blow = riccati_rk4(r0, mu, delta, c, ode.t)
            below_cap = ode.y <= 1e6
            rel = np.abs(y_num[below_cap] - ode.y[below_cap]) / ode.y[below_cap]
            worst_track = max(worst_track, float(rel.max()))
            worst_blow = max(worst_blow, blow / r1)
        assert worst_r1 <= 1e-12
        assert worst_track <= 1e-8
        assert worst_blow <= 1.001
        note(f"r1 rel {worst_r1:.1e}, tracking {worst_track:.1e}, "
             f"blow-up at {worst_blow:.9f} r1")


def test_criterion_9_strip_decay(acceptance_log):
    with criterion(acceptance_log, 9,
                   "strip center differences decay with length") as note:
        table = perturbation_decay([4.0, 8.0, 16.0], s=1.0)
        assert np.all(np.diff(table.diffs) < 0.0)
        note("diffs " + " > ".join(f"{d:.4f}" for d in table.diffs))


def test_criterion_10_determinism(acceptance_log, out_dir, tmp_path_factory,
                                  lemma_runs, affine_runs, flux_fine):
    with criterion(acceptance_log, 10,
                   "reruns produce byte-identical files") as note:
        replay = tmp_path_factory.mktemp("acceptance-replay")
        run_lemma(replay)
        run_affine(replay)
        run_flux_experiment(0.05, replay)
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert (replay / name).read_bytes() \
                == (out_dir / name).read_bytes(), name
        note(f"{len(names)} files identical")
