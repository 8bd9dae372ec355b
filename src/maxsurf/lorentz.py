"""Pointwise algebra of spacelike gradients.

A gradient g in the open unit disk describes a spacelike graph element in
Minkowski 3-space.  This module collects the scalar identities used
everywhere else: the area density w = sqrt(1 - |g|^2), the flux vector
g/w, and the coercivity inequality

    (g - g') . (g/w - g'/w') >= c(eps) |g/w - g'/w'|^2

valid whenever |g|, |g'| <= 1 - eps, with the closed-form constant
c(eps) = (eps (2 - eps))^(3/2).  All functions broadcast over leading axes;
gradients are arrays of shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIGHTLIKE_GUARD = 1e-14


class SpacelikeError(ValueError):
    """A gradient is lightlike or timelike (|g| >= 1 - guard)."""

    def __init__(self, norm: float):
        self.norm = float(norm)
        super().__init__(f"gradient norm {self.norm!r} is not safely spacelike")


def _spacelike_density(norm2: np.ndarray, margin: float) -> np.ndarray:
    """Area density w = sqrt(1 - |g|^2) of gradients kept off the light cone.

    Takes the squared norms |g|^2 and raises SpacelikeError unless every
    |g| stays below 1 - margin, tested as |g|^2 against (1 - margin)^2.
    The pointwise algebra of this module passes LIGHTLIKE_GUARD; the solver
    passes its much wider SIGMA_MIN, which keeps Newton iterates away from
    the light cone.
    """
    limit = 1.0 - margin
    if np.any(norm2 >= limit * limit):
        raise SpacelikeError(float(np.sqrt(norm2.max())))
    return np.sqrt(1.0 - norm2)


def _density(g: np.ndarray) -> np.ndarray:
    return _spacelike_density(np.sum(g * g, axis=-1), LIGHTLIKE_GUARD)


def flux_coeffs(g) -> np.ndarray:
    """Coefficients (p, q) of the conserved-flux form (g_x/w) dy - (g_y/w) dx.

    The form is closed exactly when the graph of the underlying function is
    a maximal surface, which is what makes it integrable to a conjugate
    potential.
    """
    g = np.asarray(g, dtype=float)
    w = _density(g)
    return np.stack([-g[..., 1] / w, g[..., 0] / w], axis=-1)


def normalized_gradient(g) -> np.ndarray:
    """x = g / w; |x| can be arbitrarily large but stays finite while spacelike."""
    g = np.asarray(g, dtype=float)
    return g / _density(g)[..., None]


def flux_monotonicity(g, g2) -> np.ndarray:
    """Pairing (g - g') . (g/w - g'/w'), the left side of the coercivity bound."""
    g = np.asarray(g, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    return np.sum((g - g2) * (normalized_gradient(g) - normalized_gradient(g2)), axis=-1)


def flux_gap_sq(g, g2) -> np.ndarray:
    """|g/w - g'/w'|^2, the squared Euclidean gap of the normalized gradients."""
    d = normalized_gradient(g) - normalized_gradient(g2)
    return np.sum(d * d, axis=-1)


@dataclass(frozen=True)
class CoercivityConstants:
    """Closed-form constant of the coercivity inequality at margin eps.

    c = (eps (2-eps))^(3/2), the product of the smallest mean area density
    sqrt(eps (2-eps)) and the smallest Minkowski-to-Euclidean gap ratio
    eps (2-eps) over the admissible gradients.
    """

    eps: float
    c: float


def coercivity_constants(eps: float) -> CoercivityConstants:
    """Constants for gradients with |g|, |g'| <= 1 - eps, for eps in (0, 1]."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    s = eps * (2.0 - eps)
    return CoercivityConstants(eps=float(eps), c=float(s ** 1.5))


@dataclass(frozen=True)
class CoercivityReport:
    """Result of randomized certification of the coercivity bound."""

    eps: float
    c: float
    n_samples: int
    seed: int
    min_ratio: float
    violations: int

    def record_items(self):
        return [
            ("eps", self.eps),
            ("C", self.c),
            ("n_samples", self.n_samples),
            ("seed", self.seed),
            ("min_ratio", self.min_ratio),
            ("violations", self.violations),
        ]


RATIO_FLOOR = 1e-20  # pairs with smaller squared gap are skipped as 0/0


def sample_coercivity(eps: float, n_samples: int, seed: int) -> CoercivityReport:
    """Sample gradient pairs and check the coercivity ratio against c(eps).

    Pairs are drawn uniformly from the disk of radius 1 - eps by rejection
    from the bounding square, with a seeded generator so reruns are byte
    identical.  Pairs whose squared gap falls below 1e-20 are skipped.

    Returns the report with the smallest observed ratio and the number of
    violations (ratio < c(eps)); the inequality predicts zero.
    """
    consts = coercivity_constants(eps)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    radius = 1.0 - eps
    g = _sample_disk(rng, radius, n_samples)
    g2 = _sample_disk(rng, radius, n_samples)
    lhs = flux_monotonicity(g, g2)
    rhs = flux_gap_sq(g, g2)
    valid = rhs >= RATIO_FLOOR
    if not np.any(valid):
        return CoercivityReport(eps=float(eps), c=consts.c, n_samples=n_samples,
                                seed=seed, min_ratio=float("inf"), violations=0)
    ratio = lhs[valid] / rhs[valid]
    return CoercivityReport(
        eps=float(eps),
        c=consts.c,
        n_samples=n_samples,
        seed=seed,
        min_ratio=float(ratio.min()),
        violations=int(np.count_nonzero(ratio < consts.c)),
    )


def _sample_disk(rng, radius: float, n: int) -> np.ndarray:
    """Uniform points in the closed disk via rejection from the square."""
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        batch = max(1024, int(1.35 * (n - filled)))
        pts = rng.uniform(-radius, radius, size=(batch, 2))
        keep = pts[np.sum(pts * pts, axis=1) <= radius * radius]
        take = min(len(keep), n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out
