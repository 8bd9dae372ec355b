"""Conjugate correspondence between the two surface equations.

A solution u of the Euclidean equation carries the closed 1-form
(u_y/W) dx - (u_x/W) dy with W = sqrt(1 + |grad u|^2); its potential is a
spacelike solution of the Lorentzian equation, and vice versa through the
conserved-flux form.  On simply connected meshes the correspondence is a
bijection up to additive constants, which the round-trip error measures.
"""

from __future__ import annotations

import numpy as np

from .forms import (flux_form, integrate_potential,
                    max_interior_circulation)
from .mesh import Mesh
from .solver import _check_field, p1_gradient

__all__ = [
    "conjugate_pair_coeffs",
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


def _integrate_lenient(mesh: Mesh, form: np.ndarray, floor: float) -> np.ndarray:
    # reconstructed potentials are only as closed as the averaging that
    # built them; gate on the measured defect, not the input tolerance
    defect = max_interior_circulation(mesh, form)
    return integrate_potential(mesh, form,
                               closedness_tol=max(floor, defect * (1.0 + 1e-9)))


def round_trip_error(mesh: Mesh, field: np.ndarray,
                     closedness_tol: float = 1e-9,
                     direction: str = "min2max") -> float:
    """Max-norm distance of conjugating twice from the identity.

    Conjugates the field, conjugates back, and compares with the input
    after removing the mean difference (the correspondence only determines
    fields up to additive constants).  The first leg validates the input
    at closedness_tol; the intermediate potential is a reconstruction
    whose form carries an O(h^2) closedness defect, so the return leg is
    gated on that measured defect instead.  Zero for affine fields; O(h^2)
    for smooth solutions, halving the mesh divides the error by about 4.
    """
    field = _check_field(mesh, field)
    if direction == "min2max":
        mid = maximal_conjugate(mesh, field, closedness_tol)
    elif direction == "max2min":
        mid = minimal_conjugate(mesh, field, closedness_tol)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return return_trip_error(mesh, field, mid, closedness_tol, direction)


def return_trip_error(mesh: Mesh, field: np.ndarray, conjugate: np.ndarray,
                      closedness_tol: float = 1e-9,
                      direction: str = "min2max") -> float:
    """round_trip_error given the field's forward conjugate, already built.

    ``conjugate`` is what maximal_conjugate (min2max) or minimal_conjugate
    (max2min) returned for the field; only the return leg is integrated.
    """
    field = _check_field(mesh, field)
    mid = _check_field(mesh, conjugate)
    if direction == "min2max":
        back = _integrate_lenient(mesh, flux_form(mesh, mid), closedness_tol)
    elif direction == "max2min":
        back = _integrate_lenient(
            mesh, conjugate_pair_coeffs(p1_gradient(mesh, mid)),
            closedness_tol)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    diff = back - field
    diff -= diff.mean()
    return float(np.abs(diff).max())
