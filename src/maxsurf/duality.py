"""Conjugate correspondence between the two surface equations.

A solution u of the Euclidean equation carries the closed 1-form
(u_y/W) dx - (u_x/W) dy with W = sqrt(1 + |grad u|^2); its potential is a
spacelike solution of the Lorentzian equation, and vice versa through the
conserved-flux form.  On simply connected meshes the correspondence is a
bijection up to additive constants, which the round-trip error measures.
"""

from __future__ import annotations

import numpy as np

from .forms import flux_form, integrate_potential
from .mesh import Mesh
from .solver import _check_field, p1_gradient

__all__ = [
    "DIRECTIONS",
    "conjugate_pair_coeffs",
    "conjugates",
    "maximal_conjugate",
    "minimal_conjugate",
    "return_trip_error",
    "round_trip_error",
]


def conjugate_pair_coeffs(gradients: np.ndarray) -> np.ndarray:
    """Coefficients (u_y/W, -u_x/W) of the conjugate form, W = sqrt(1+|g|^2).

    The coefficient norm is |g|/W < 1, so the potential of the form is
    spacelike wherever its gradient matches the form.
    """
    g = np.asarray(gradients, dtype=float)
    w = np.sqrt(1.0 + np.sum(g * g, axis=-1))
    return np.stack([g[..., 1] / w, -g[..., 0] / w], axis=-1)


def maximal_conjugate(mesh: Mesh, u: np.ndarray,
                      closedness_tol: float = 1e-9) -> np.ndarray:
    """Spacelike potential conjugate to a Euclidean solution u.

    Builds the conjugate form of u, verifies closedness (equivalent to u
    satisfying the discrete Euclidean equation), and integrates it.  The
    result vanishes at vertex 0 and has per-triangle gradient norm below 1
    up to the integration's averaging error.
    """
    u = _check_field(mesh, u)
    beta = conjugate_pair_coeffs(p1_gradient(mesh, u))
    return integrate_potential(mesh, beta, closedness_tol=closedness_tol)


def minimal_conjugate(mesh: Mesh, v: np.ndarray,
                      closedness_tol: float = 1e-9) -> np.ndarray:
    """Euclidean-solution potential conjugate to a spacelike solution v.

    Integrates the conserved-flux form of v; closedness is equivalent to v
    satisfying the discrete Lorentzian equation, and the returned field
    satisfies the discrete Euclidean equation to the same order.
    """
    v = _check_field(mesh, v)
    return integrate_potential(mesh, flux_form(mesh, v),
                               closedness_tol=closedness_tol)


# the return leg's form is a reconstruction, only as closed as the averaging
# that built it, so every finite defect passes its closedness gate; the one
# measurement of the defect is the gate's own
UNGATED = float(np.finfo(float).max)

# direction -> (forward conjugate, return conjugate), by name
DIRECTIONS = {"min2max": ("maximal_conjugate", "minimal_conjugate"),
              "max2min": ("minimal_conjugate", "maximal_conjugate")}


def conjugates(direction: str) -> list:
    """The direction's conjugates, looked up per call so wrappers apply."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    return [globals()[name] for name in DIRECTIONS[direction]]


def round_trip_error(mesh: Mesh, field: np.ndarray,
                     closedness_tol: float = 1e-9,
                     direction: str = "min2max") -> float:
    """Max-norm distance of conjugating twice from the identity.

    Conjugates the field, conjugates back, and compares with the input
    after removing the mean difference (the correspondence only determines
    fields up to additive constants).  The first leg validates the input
    at closedness_tol; the intermediate potential is a reconstruction
    whose form carries an O(h^2) closedness defect, so the return leg is
    not gated.  Zero for affine fields; O(h^2) for smooth solutions,
    halving the mesh divides the error by about 4.
    """
    forward, _ = conjugates(direction)
    mid = forward(mesh, field, closedness_tol)
    return return_trip_error(mesh, field, mid, direction)


def return_trip_error(mesh: Mesh, field: np.ndarray, conjugate: np.ndarray,
                      direction: str = "min2max") -> float:
    """round_trip_error given the field's forward conjugate, already built.

    ``conjugate`` is what the direction's forward conjugate returned for the
    field; only the return leg is integrated, and it is not gated.
    """
    field = _check_field(mesh, field)
    _, back = conjugates(direction)
    diff = back(mesh, conjugate, UNGATED) - field
    diff -= diff.mean()
    return float(np.abs(diff).max())
