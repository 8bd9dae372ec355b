"""Numerical workbench for spacelike graphs of zero mean curvature.

Finite element solves of the Dirichlet problem for the maximal surface
equation (and its Euclidean sibling), the conserved-flux 1-form calculus
on triangulations, the conjugate correspondence between the two
equations, and the quantitative comparison machinery behind uniqueness
on unbounded domains.
"""

import os
import sys

# one OpenBLAS thread, unless numpy is already loaded or the user chose: a
# second speeds up no call made here and spins for 0.1 s of CPU when idle
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .mesh import (ARTIFICIAL, DIRICHLET, INTERIOR, Mesh, build_annulus,
                   build_rectangle, build_strip, load_mesh, save_mesh)
from .lorentz import (CoercivityReport, SpacelikeError, coercivity_constant,
                      flux_coeffs, flux_gap_sq, flux_monotonicity,
                      normalized_gradient, sample_coercivity)
from .solver import (Evaluation, NonConvergenceError, SolveReport,
                     SolverConfig, cg_solve, energy, load_field,
                     p1_divergence, p1_gradient, residual, residual_norm,
                     save_field, solve, tangent_matrix)
from .forms import (ClosednessError, TopologyError, circulations,
                    flux_form, integrate_potential, max_interior_circulation,
                    polyline_pieces)
from .duality import (conjugate_pair_coeffs, maximal_conjugate,
                      minimal_conjugate, return_trip_error, round_trip_error)
from .uniqueness import (ComparisonVerdict, DecayTable, FluxScan,
                         LevelRegion, blowup_radius, comparison_verdict,
                         flux_scan, level_region, perturbation_decay,
                         radial_grid, riccati_comparison, save_scan)
from .expressions import Expression, ExpressionError

__version__ = "0.1.0"
