"""Quantitative comparison machinery for pairs of spacelike solutions.

Given two solutions v and v' of the same Dirichlet problem, the chain runs:
pick a level offset a and the region where v - v' - a > 0, anchor the
difference-form energy there, scan concentric circles for the flux of the
difference form, test the resulting differential inequality, and compare
the flux against the blow-up solution of the matching Riccati problem.
Boundary-perturbation decay on truncated strips provides the experimental
counterpart: the influence of far-away artificial data must fade.

All circles are centered at the origin; meshes for these experiments are
built origin-centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import polyline_pieces
from .lorentz import coercivity_constant, flux_coeffs
from .mesh import ARTIFICIAL, Mesh, build_strip
from .records import field_items, write_csv
from .solver import (NonConvergenceError, SolverConfig, _check_field,
                     p1_gradient, solve)

LEVEL_CANDIDATES = 33
ODE_SAMPLES = 200
SCAN_HEADER = "r,eta,energy,lhs,rhs,flag"
DECAY_HEADER = "L,diff"

FOUR_PI = 4.0 * math.pi
MAX_BLOWUP_EXPONENT = 700.0


# ----------------------------------------------------------------------
# level region
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LevelRegion:
    """Triangle subset where v exceeds v' by more than the offset a.

    delta is a quarter of sup(v - v'); a lies in [2*delta, 3*delta], so the
    shifted difference v - v' - a is bounded by 2*delta on the region.
    clearance is the smallest |v - v' - a| over all vertices: the level
    avoids vertex values by at least this much.  The region is read from
    vertex values only; ``flux_scan`` measures the gradients on it.
    """

    a: float
    delta: float
    triangles: np.ndarray
    clearance: float

    @property
    def empty(self) -> bool:
        return len(self.triangles) == 0


def level_region(mesh: Mesh, v: np.ndarray, vp: np.ndarray) -> LevelRegion:
    """Choose a level offset and return the region above it.

    The offset a is picked from 33 equispaced candidates in
    [2*delta, 3*delta], maximizing the clearance between the level and the
    vertex values of v - v' (ties go to the smallest candidate).  Region
    membership is decided at triangle centroids.  sup(v - v') <= 0 yields
    the empty region with delta <= 0, signalling v <= v' everywhere.
    """
    v = _check_field(mesh, v)
    vp = _check_field(mesh, vp)
    diff = v - vp
    delta = float(diff.max()) / 4.0
    if delta <= 0.0:
        return LevelRegion(a=0.0, delta=delta,
                           triangles=np.empty(0, dtype=np.int64),
                           clearance=math.nan)
    candidates = np.linspace(2.0 * delta, 3.0 * delta, LEVEL_CANDIDATES)
    # the values nearest each candidate are its neighbours in sorted order
    # (the rounded |d - c| is monotone in d on either side of c); the
    # largest value, 4 delta, lies above every candidate
    ordered = np.sort(diff)
    above = np.searchsorted(ordered, candidates)
    clearances = np.minimum(
        np.abs(ordered[np.maximum(above - 1, 0)] - candidates),
        np.abs(ordered[above] - candidates))
    best = int(np.argmax(clearances))
    a = float(candidates[best])
    centroid_diff = diff[mesh.triangles].mean(axis=1)
    tris = np.where(centroid_diff - a > 0.0)[0].astype(np.int64)
    return LevelRegion(a=a, delta=delta, triangles=tris,
                       clearance=float(clearances[best]))


# ----------------------------------------------------------------------
# flux scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FluxScan:
    """Per-radius flux and energy data for the differential inequality.

    eps_hat is the measured spacelike margin on the region: min over both
    fields of min over region triangles of 1 - |gradient|.  For each
    radius r: eta is the arclength integral of |difference form|
    over the circle clipped to the region, energy the area integral of its
    squared norm over the region inside radius r, lhs and rhs the two sides
    mu + c_eps*(energy - energy[0]) and 2*delta*eta.  length and sq_line
    (circle arclength inside the region, arclength integral of the squared
    norm) support the Cauchy-Schwarz bound eta^2 <= length * sq_line.
    """

    r0: float
    delta: float
    eps_hat: float
    c_eps: float
    mu: float
    tol_rel: float
    radii: np.ndarray
    eta: np.ndarray
    energy: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    flags: np.ndarray
    length: np.ndarray
    sq_line: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(np.count_nonzero(self.flags))


def radial_grid(mesh: Mesh, region: LevelRegion, ratio: float = 1.1) -> np.ndarray:
    """Geometric radius grid covering the region's centroid radii.

    Starts one ratio step above the innermost centroid radius so the first
    shell encloses a positive amount of region area, and extends by the
    given ratio until the outermost centroid radius.  Matches the
    logarithmic structure of the comparison problem.  A ratio so close to 1
    that the grid would hold more radii than the region has triangles is
    refused before any radius is built.
    """
    if region.empty:
        raise ValueError("cannot build a radius grid for an empty region")
    if not 1.0 < ratio < np.inf:
        raise ValueError("ratio must exceed 1 and be finite")
    rad = np.linalg.norm(mesh.centroids[region.triangles], axis=1)
    r_lo = float(rad.min())
    r_hi = float(rad.max())
    if r_lo <= 0.0:
        raise ValueError("region touches the origin; circles degenerate")
    start = r_lo * ratio
    if start >= r_hi:
        return np.array([0.5 * (r_lo + r_hi)])
    count = math.floor(math.log(r_hi / start) / math.log(ratio)) + 1
    if count > len(rad):
        raise ValueError(f"ratio {ratio!r} gives {count} radii, more than "
                         f"the region's {len(rad)} triangles")
    # start, start * ratio, (start * ratio) * ratio, ...: one product more
    # than counted, in case the logarithms rounded low
    out = np.multiply.accumulate(np.r_[start, np.full(count, ratio)])
    return out[out <= r_hi]


def flux_scan(mesh: Mesh, v: np.ndarray, vp: np.ndarray, region: LevelRegion,
              radii, tol_rel: float = 0.05) -> FluxScan:
    """Scan circles of the given radii and test the differential inequality.

    Checks mu + c_eps*(energy_k - energy_0) <= 2*delta*eta_k at every
    radius, flagging violations beyond the relative tolerance (finite and
    nonnegative).  The circles are cut into exact arcs at triangle edges
    (``forms.polyline_pieces``); on each arc the difference form is
    constant, so every line integral is in closed form.  The anchor
    mu = c_eps * energy at the first radius must be positive, otherwise
    the region is too small to support the comparison and a ValueError is
    raised.  Radii must be strictly increasing.  Each field's P1 gradient
    is taken once; it gives the difference form and the region's margin
    eps_hat, and c_eps = c(eps_hat).
    """
    if region.empty:
        raise ValueError("flux scan needs a nonempty region")
    g, gp = p1_gradient(mesh, v), p1_gradient(mesh, vp)
    radii = np.asarray(radii, dtype=float)
    # polyline_pieces checks that they are 1d, positive and increasing
    if radii.size == 0:
        raise ValueError("radii must be a nonempty 1d sequence")
    # false for nan as well, which would leave every radius unflagged
    if not 0.0 <= tol_rel < np.inf:
        raise ValueError("tol_rel must be finite and nonnegative")

    tris = region.triangles
    alpha = flux_coeffs(g) - flux_coeffs(gp)
    steepest = max(np.sum(x * x, axis=-1).max() for x in (g[tris], gp[tris]))
    eps_hat = float(1.0 - np.sqrt(steepest))
    del g, gp  # else held through the arc clipping, where the scan peaks
    c_eps = coercivity_constant(eps_hat)

    cent_rad = np.linalg.norm(mesh.centroids[tris], axis=1)
    order = np.argsort(cent_rad, kind="stable")
    sq_density = np.sum(alpha[tris] ** 2, axis=1) * mesh.areas[tris]
    cum_energy = np.concatenate([[0.0], np.cumsum(sq_density[order])])
    energy = cum_energy[np.searchsorted(cent_rad[order], radii + 1e-12,
                                        side="right")]

    length, eta, sq_line = _circle_sums(mesh, alpha, radii, tris)

    mu = c_eps * float(energy[0])
    if mu <= 0.0:
        raise ValueError(
            "anchor energy inside the first radius is zero; the region "
            "cannot support the comparison there"
        )
    lhs = mu + c_eps * (energy - energy[0])
    rhs = 2.0 * region.delta * eta
    flags = lhs > rhs * (1.0 + tol_rel)
    return FluxScan(r0=float(radii[0]), delta=region.delta,
                    eps_hat=eps_hat, c_eps=c_eps, mu=mu,
                    tol_rel=tol_rel, radii=radii, eta=eta, energy=energy,
                    lhs=lhs, rhs=rhs, flags=flags, length=length,
                    sq_line=sq_line)


def _circle_sums(mesh: Mesh, alpha, radii, triangles):
    """Line integrals over the circles of the given radii, clipped to the
    triangles: (length, eta, sq_line), one entry per radius.

    On an arc of radius r from t0 to t1 the form alpha is constant, so the
    arc gives r (t1 - t0) times 1, |alpha| and |alpha|^2.
    """
    tri, k, t0, t1 = polyline_pieces(mesh, radii, triangles=triangles)
    n = len(radii)
    arc = radii[k] * (t1 - t0)
    a1, a2 = alpha[tri, 0], alpha[tri, 1]
    sq_norm = a1 * a1 + a2 * a2
    return (np.bincount(k, weights=arc, minlength=n),
            np.bincount(k, weights=np.sqrt(sq_norm) * arc, minlength=n),
            np.bincount(k, weights=sq_norm * arc, minlength=n))


def save_scan(scan: FluxScan, path) -> None:
    write_csv(path, SCAN_HEADER, [
        scan.radii, scan.eta, scan.energy, scan.lhs, scan.rhs,
        scan.flags.astype(np.int64),
    ])


# ----------------------------------------------------------------------
# Riccati comparison
# ----------------------------------------------------------------------


def _riccati_y(t: np.ndarray, r0: float, mu: float, delta: float,
               c: float) -> np.ndarray:
    """Closed-form blow-up solution at radii t >= r0; inf at or beyond r1."""
    inv = 4.0 * delta / mu - c / (FOUR_PI * delta) * np.log(t / r0)
    out = np.full(t.shape, np.inf)
    np.divide(1.0, inv, out=out, where=inv > 0.0)
    return out


def blowup_radius(r0: float, mu: float, delta: float, c: float) -> float:
    if min(r0, mu, delta, c) <= 0.0:
        raise ValueError("all comparison parameters must be positive")
    exponent = 16.0 * math.pi * delta * delta / (mu * c)
    if exponent > MAX_BLOWUP_EXPONENT:
        raise ValueError(
            f"blow-up exponent {exponent:.3g} overflows double range"
        )
    return r0 * math.exp(exponent)


def riccati_comparison(r0: float, mu: float, delta: float, c: float):
    """Blow-up solution of y' = c y^2 / (4 pi delta t), y(r0) = mu/(4 delta).

    Returns (t, y): the closed-form solution
    1/y(t) = 4 delta/mu - (c / 4 pi delta) ln(t/r0) at ``ODE_SAMPLES``
    points of a log grid from r0 to r1 * (1 - 1e-6), where
    r1 = r0 exp(16 pi delta^2 / (mu c)) is ``blowup_radius``; y is
    strictly increasing with y(r0) = mu/(4 delta) and diverges as t
    approaches r1.
    """
    r1 = blowup_radius(r0, mu, delta, c)
    # a huge anchor collapses r1 onto r0; keep the grid inside [r0, r1)
    t = np.geomspace(r0, max(r0, r1 * (1.0 - 1e-6)), ODE_SAMPLES)
    t[0] = r0
    return t, _riccati_y(t, r0, mu, delta, c)


# ----------------------------------------------------------------------
# verdict
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of measuring the scanned flux against the blow-up solution.

    consistent means eta >= y held at every unflagged scan radius below r1.
    first_fail_r is the innermost radius below r1 where eta < y regardless
    of flags (-1 if none); on a truncated mesh the scan usually ends well
    inside r1, which truncation_ratio quantifies.
    """

    r0: float
    r1: float
    mu: float
    delta: float
    c: float
    n_radii: int
    n_below_blowup: int
    n_flagged: int
    n_checked: int
    n_holding: int
    consistent: bool
    first_fail_r: float
    truncation_r: float
    truncation_ratio: float
    regime: str

    def record_items(self):
        return field_items(self)


def comparison_verdict(scan: FluxScan) -> ComparisonVerdict:
    """Check eta(r) >= y(r) below the blow-up radius and summarize.

    r1 and y are those of the Riccati problem with the scan's (r0, mu,
    delta, c_eps), the one ``riccati_comparison`` samples.  Radii flagged
    by the scan are excluded from the consistency requirement since the
    inequality chain already failed there, but the innermost failing
    radius is reported unconditionally.
    """
    r0, mu, delta, c = scan.r0, scan.mu, scan.delta, scan.c_eps
    r1 = blowup_radius(r0, mu, delta, c)
    below = scan.radii < r1 * (1.0 - 1e-12)
    radii = scan.radii[below]
    y = _riccati_y(radii, r0, mu, delta, c)
    holds = scan.eta[below] >= y * (1.0 - 1e-12)
    unflagged = ~scan.flags[below]
    checked = int(np.count_nonzero(unflagged))
    consistent = bool(np.all(holds[unflagged])) if checked else False
    fails = radii[~holds]
    first_fail = float(fails[0]) if len(fails) else -1.0
    trunc = float(scan.radii[-1])
    regime = "truncated" if trunc < r1 else "blowup_reached"
    return ComparisonVerdict(
        r0=r0, r1=r1, mu=mu, delta=delta, c=c,
        n_radii=len(scan.radii), n_below_blowup=int(np.count_nonzero(below)),
        n_flagged=scan.n_flagged, n_checked=checked,
        n_holding=int(np.count_nonzero(holds)), consistent=consistent,
        first_fail_r=first_fail, truncation_r=trunc,
        truncation_ratio=trunc / r1, regime=regime,
    )


# ----------------------------------------------------------------------
# perturbation decay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecayTable:
    """Center-line differences of paired strip solves, by strip length."""

    lengths: np.ndarray
    diffs: np.ndarray
    iterations: np.ndarray

    @property
    def strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.diffs) < 0.0))

    def save(self, path) -> None:
        write_csv(path, DECAY_HEADER, [self.lengths, self.diffs])


def _end_taper(mesh: Mesh, height: float) -> np.ndarray:
    # hat profile along the artificial ends, 0 at the long sides, 1 midway
    t = np.zeros(mesh.vertex_count)
    ends = mesh.vertex_class == ARTIFICIAL
    y = mesh.vertices[ends, 1]
    t[ends] = 1.0 - np.abs(2.0 * y / height - 1.0)
    return t


def perturbation_decay(lengths, s: float, phi=None, height: float = 4.0,
                       h: float = 0.25, metric: str = "lorentz") -> DecayTable:
    """Far-field influence of artificial end data on truncated strips.

    For each length L solves twice on the strip [0, L] x [0, height]: both
    solves share the data phi(x, y), an ``Expression`` (zero when None), on
    the long sides (the true boundary), while the artificial ends carry phi
    plus and minus (s/2) times a hat taper that vanishes at the strip
    corners (a constant offset would break the gradient constraint where
    the ends meet the long sides).  The end data of the two solves
    therefore differ by s at the end midpoints.
    Reported per length: the maximum |v - v'| over the center cross
    section.  Lengths must be strictly increasing; uniqueness on the
    unbounded strip predicts the differences decrease.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or len(lengths) == 0:
        raise ValueError("need at least one strip length")
    if np.any(lengths <= 0.0) or np.any(np.diff(lengths) <= 0.0):
        raise ValueError("lengths must be positive and strictly increasing")
    if not 0.0 <= s < np.inf:
        raise ValueError("offset s must be finite and nonnegative")
    config = SolverConfig(metric=metric)

    def run(length: float):
        mesh = build_strip(length, height, h)
        base = np.zeros(mesh.vertex_count)
        if phi is not None:
            base = phi.boundary_data(mesh)
        taper = _end_taper(mesh, height)
        v, rep = solve(mesh, base + 0.5 * s * taper, config)
        vp, rep_p = solve(mesh, base - 0.5 * s * taper, config)
        for r in (rep, rep_p):
            if not r.converged:
                raise NonConvergenceError(
                    f"strip L={length:g}: {r.reason}", r.residual)
        dx = np.abs(mesh.vertices[:, 0] - 0.5 * length)
        center = dx <= dx.min() + 1e-12
        return (float(np.abs(v - vp)[center].max()),
                rep.iterations + rep_p.iterations)

    results = [run(length) for length in lengths]
    diffs = np.array([r[0] for r in results])
    iters = np.array([r[1] for r in results], dtype=np.int64)
    return DecayTable(lengths=lengths, diffs=diffs, iterations=iters)
