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
from dataclasses import dataclass, field

import numpy as np

from .forms import flux_form, polyline_pieces
from .lorentz import coercivity_constants
from .mesh import ARTIFICIAL, Mesh, build_strip
from .records import write_csv
from .solver import (NonConvergenceError, SolverConfig, _check_field,
                     gradient_margin, solve)

LEVEL_CANDIDATES = 33
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
    avoids vertex values by at least this much.  eps_hat is the measured
    spacelike margin: min over both fields of min over region triangles of
    1 - |gradient|.  An empty region (no triangle centroid above the level)
    carries eps_hat = nan.
    """

    a: float
    delta: float
    triangles: np.ndarray
    eps_hat: float
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
                           eps_hat=math.nan, clearance=math.nan)
    candidates = np.linspace(2.0 * delta, 3.0 * delta, LEVEL_CANDIDATES)
    # a candidate at a time: the (V, 33) table took more memory than the solves
    clearances = np.array([np.abs(diff - c).min() for c in candidates])
    best = int(np.argmax(clearances))
    a = float(candidates[best])
    centroid_diff = diff[mesh.triangles].mean(axis=1)
    tris = np.where(centroid_diff - a > 0.0)[0].astype(np.int64)
    if len(tris) == 0:
        return LevelRegion(a=a, delta=delta, triangles=tris,
                           eps_hat=math.nan,
                           clearance=float(clearances[best]))
    eps_hat = min(gradient_margin(mesh, v, tris),
                  gradient_margin(mesh, vp, tris))
    return LevelRegion(a=a, delta=delta, triangles=tris, eps_hat=eps_hat,
                       clearance=float(clearances[best]))


# ----------------------------------------------------------------------
# flux scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FluxScan:
    """Per-radius flux and energy data for the differential inequality.

    For each radius r: eta is the arclength integral of |difference form|
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

    def record_items(self):
        return [
            ("r0", self.r0),
            ("delta", self.delta),
            ("eps_hat", self.eps_hat),
            ("C", self.c_eps),
            ("mu", self.mu),
            ("tol_rel", self.tol_rel),
            ("n_radii", len(self.radii)),
            ("n_flagged", self.n_flagged),
        ]


def radial_grid(mesh: Mesh, region: LevelRegion, ratio: float = 1.1) -> np.ndarray:
    """Geometric radius grid covering the region's centroid radii.

    Starts one ratio step above the innermost centroid radius so the first
    shell encloses a positive amount of region area, and extends by the
    given ratio until the outermost centroid radius.  Matches the
    logarithmic structure of the comparison problem.
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
    out = [start]
    while out[-1] * ratio <= r_hi:
        out.append(out[-1] * ratio)
    return np.asarray(out)


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
    raised.  Radii must be strictly increasing.
    """
    if region.empty:
        raise ValueError("flux scan needs a nonempty region")
    v = _check_field(mesh, v)
    vp = _check_field(mesh, vp)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0:
        raise ValueError("radii must be a nonempty 1d sequence")
    if np.any(radii <= 0.0) or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be positive and strictly increasing")
    if not (0.0 < region.eps_hat <= 1.0):
        raise ValueError("region gradient margin must lie in (0, 1]")
    # false for nan as well, which would leave every radius unflagged
    if not 0.0 <= tol_rel < np.inf:
        raise ValueError("tol_rel must be finite and nonnegative")

    alpha = flux_form(mesh, v) - flux_form(mesh, vp)
    c_eps = coercivity_constants(region.eps_hat).c

    tris = region.triangles
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
                    eps_hat=region.eps_hat, c_eps=c_eps, mu=mu,
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


@dataclass(frozen=True)
class OdeComparison:
    """Blow-up solution of y' = c y^2 / (4 pi delta t), y(r0) = mu/(4 delta).

    r1 = r0 * exp(16 pi delta^2 / (mu c)) is where the closed-form solution
    1/y(t) = 4 delta/mu - (c / 4 pi delta) ln(t/r0) diverges.  t and y hold
    samples on a logarithmic grid up to just below r1.
    """

    r0: float
    mu: float
    delta: float
    c: float
    r1: float
    t: np.ndarray
    y: np.ndarray

    def y_at(self, t) -> np.ndarray:
        """Closed-form solution at the given radii; inf at or beyond r1."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.r0 * (1.0 - 1e-12)):
            raise ValueError("solution is defined from r0 onward")
        return _riccati_y(t, self.r0, self.mu, self.delta, self.c)

    def record_items(self):
        return [
            ("r0", self.r0),
            ("mu", self.mu),
            ("delta", self.delta),
            ("C", self.c),
            ("r1", self.r1),
            ("n_samples", len(self.t)),
        ]


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


def riccati_comparison(r0: float, mu: float, delta: float, c: float,
                       n_samples: int = 200) -> OdeComparison:
    """Closed-form blow-up solution sampled on a log grid in [r0, r1).

    The grid ends at r1 * (1 - 1e-6); y is strictly increasing with
    y(r0) = mu / (4 delta) and diverges as t approaches r1.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    r1 = blowup_radius(r0, mu, delta, c)
    # a huge anchor collapses r1 onto r0; keep the grid inside [r0, r1)
    t = np.geomspace(r0, max(r0, r1 * (1.0 - 1e-6)), n_samples)
    t[0] = r0
    return OdeComparison(r0=r0, mu=mu, delta=delta, c=c, r1=r1, t=t,
                         y=_riccati_y(t, r0, mu, delta, c))


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
        return [
            ("r0", self.r0),
            ("r1", self.r1),
            ("mu", self.mu),
            ("delta", self.delta),
            ("C", self.c),
            ("n_radii", self.n_radii),
            ("n_below_blowup", self.n_below_blowup),
            ("n_flagged", self.n_flagged),
            ("n_checked", self.n_checked),
            ("n_holding", self.n_holding),
            ("consistent", self.consistent),
            ("first_fail_r", self.first_fail_r),
            ("truncation_r", self.truncation_r),
            ("truncation_ratio", self.truncation_ratio),
            ("regime", self.regime),
        ]


def _params_match(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def comparison_verdict(scan: FluxScan, ode: OdeComparison) -> ComparisonVerdict:
    """Check eta(r) >= y(r) below the blow-up radius and summarize.

    The scan and the comparison solution must share (r0, mu, delta, c).
    Radii flagged by the scan are excluded from the consistency requirement
    since the inequality chain already failed there, but the innermost
    failing radius is reported unconditionally.
    """
    pairs = [(scan.r0, ode.r0), (scan.mu, ode.mu), (scan.delta, ode.delta),
             (scan.c_eps, ode.c)]
    if not all(_params_match(a, b) for a, b in pairs):
        raise ValueError("scan and comparison solution parameters differ")
    below = scan.radii < ode.r1 * (1.0 - 1e-12)
    y_vals = ode.y_at(scan.radii[below])
    holds = scan.eta[below] >= y_vals * (1.0 - 1e-12)
    unflagged = ~scan.flags[below]
    checked = int(np.count_nonzero(unflagged))
    consistent = bool(np.all(holds[unflagged])) if checked else False
    fails = scan.radii[below][~holds]
    first_fail = float(fails[0]) if len(fails) else -1.0
    trunc = float(scan.radii[-1])
    regime = "truncated" if trunc < ode.r1 else "blowup_reached"
    return ComparisonVerdict(
        r0=scan.r0, r1=ode.r1, mu=scan.mu, delta=scan.delta, c=scan.c_eps,
        n_radii=len(scan.radii), n_below_blowup=int(np.count_nonzero(below)),
        n_flagged=scan.n_flagged, n_checked=checked,
        n_holding=int(np.count_nonzero(holds)), consistent=consistent,
        first_fail_r=first_fail, truncation_r=trunc,
        truncation_ratio=trunc / ode.r1, regime=regime,
    )


# ----------------------------------------------------------------------
# perturbation decay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecayTable:
    """Center-line differences of paired strip solves, by strip length."""

    lengths: np.ndarray
    diffs: np.ndarray
    iterations: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

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
