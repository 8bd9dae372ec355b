"""Independent oracles that only the tests read.

The Minkowski normals behind criterion 2, the factors of the coercivity
constant, the gradient margin of criterion 4 and of the solver's step
rows, and criterion 8's fourth-order integrator of the Riccati problem.
No pipeline of the package calls them, so they live here; the pointwise
functions keep the package's light-cone guard and raise its
SpacelikeError.
"""

import math

import numpy as np

from maxsurf.lorentz import _density

MINKOWSKI_SIGNS = np.array([1.0, 1.0, -1.0])


def area_density(g) -> np.ndarray:
    """w = sqrt(1 - |g|^2), the Lorentzian area integrand."""
    return _density(np.asarray(g, dtype=float))


def unit_normal(g) -> np.ndarray:
    """Upward unit normal n = (-g, 1)/w with <n, n> = -1 in the Minkowski metric."""
    g = np.asarray(g, dtype=float)
    w = _density(g)
    return np.stack([-g[..., 0] / w, -g[..., 1] / w, 1.0 / w], axis=-1)


def minkowski_inner(u, v) -> np.ndarray:
    """Signature (+, +, -) inner product on (..., 3) arrays."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.sum(u * v * MINKOWSKI_SIGNS, axis=-1)


def normal_gap_sq(g, g2) -> np.ndarray:
    """Minkowski gap |n' - n|^2 = |g/w - g'/w'|^2 - (1/w - 1/w')^2.

    Positive for distinct spacelike normals even though the metric is
    indefinite, because both normals lie on the unit timelike hyperboloid.
    """
    g = np.asarray(g, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    w = _density(g)
    w2 = _density(g2)
    d = g / w[..., None] - g2 / w2[..., None]
    return np.sum(d * d, axis=-1) - (1.0 / w - 1.0 / w2) ** 2


def corner_gradients(mesh, values, triangles=slice(None)):
    """Each triangle's gradient g from its corner values f by a 2x2 solve
    of (p_i - p_0) . g = f_i - f_0, i = 1, 2, independently of the
    package's ``Mesh.basis_columns``."""
    p = mesh.vertices[mesh.triangles[triangles]]
    f = np.asarray(values, dtype=float)[mesh.triangles[triangles]]
    rhs = (f[:, 1:] - f[:, :1])[..., None]
    return np.linalg.solve(p[:, 1:] - p[:, :1], rhs)[..., 0]


def gradient_margin(mesh, values) -> float:
    """Spacelike margin 1 - max_T |grad v| over all triangles."""
    g = corner_gradients(mesh, values)
    return float(1.0 - np.sqrt(np.sum(g * g, axis=-1).max()))


# The coercivity constant c(eps) = c1 c2 for gradients with |g|, |g'| <= 1 - eps


def c1(eps: float) -> float:
    """min of (w + w')/2 over the admissible gradients, sqrt(eps (2-eps))."""
    return math.sqrt(eps * (2.0 - eps))


def c2(eps: float) -> float:
    """min of the Minkowski-to-Euclidean gap ratio, eps (2-eps)."""
    return eps * (2.0 - eps)


def r_max(eps: float) -> float:
    """Largest normalized gradient |g/w|, (1-eps)/sqrt(eps (2-eps))."""
    return (1.0 - eps) / math.sqrt(eps * (2.0 - eps))


def riccati_rk4(r0: float, mu: float, delta: float, c: float, t_eval,
                step_factor: float = 0.002, y_cap: float = 1e9,
                max_steps: int = 2_000_000):
    """Fourth-order integration of y' = c y^2 / (4 pi delta t),
    y(r0) = mu/(4 delta), independent of the closed form.

    Integrates in s = ln(t/r0), where the equation is autonomous, with an
    adaptive step keeping y's relative growth per step near step_factor.
    Returns (y at t_eval, blow-up radius): entries past the point where y
    exceeds y_cap are inf, and the second element is the radius where the
    cap was crossed (integration continues past the last t_eval until the
    cap is reached).
    """
    if min(r0, mu, delta, c) <= 0.0:
        raise ValueError("all comparison parameters must be positive")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < r0 * (1.0 - 1e-12)):
        raise ValueError("evaluation radii must be at or beyond r0")
    if np.any(np.diff(t_eval) < 0.0):
        raise ValueError("evaluation radii must be nondecreasing")
    k = c / (4.0 * math.pi * delta)
    y = mu / (4.0 * delta)
    s = 0.0
    s_lost = 0.0
    targets = np.log(np.maximum(t_eval, r0) / r0)
    out = np.full(len(t_eval), np.inf)
    steps = 0
    blown = False

    def advance(limit: float) -> bool:
        # steps until s reaches limit or y crosses the cap; s is accumulated
        # with a carry term because a position error ds_err inflates y by a
        # factor 1 + k*y*ds_err, ruinous near blow-up where k*y is huge
        nonlocal y, s, s_lost, steps
        while s < limit - 1e-15:
            ds = min(step_factor / (k * y), limit - s)
            k1 = k * y * y
            y2 = y + 0.5 * ds * k1
            k2 = k * y2 * y2
            y3 = y + 0.5 * ds * k2
            k3 = k * y3 * y3
            y4 = y + ds * k3
            k4 = k * y4 * y4
            y = y + ds * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            inc = ds - s_lost
            s_new = s + inc
            s_lost = (s_new - s) - inc
            s = s_new
            steps += 1
            if steps > max_steps:
                raise RuntimeError("integration stalled before blow-up")
            if y > y_cap:
                return True
        return False

    for idx, tgt in enumerate(targets):
        blown = advance(tgt)
        if blown:
            break
        out[idx] = y
    if not blown:
        blown = advance(math.inf)
    return out, r0 * math.exp(s)
