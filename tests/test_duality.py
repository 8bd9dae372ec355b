"""Conjugation between the Euclidean and Lorentzian graph equations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxsurf import (
    ClosednessError,
    Evaluation,
    Mesh,
    SolverConfig,
    build_rectangle,
    conjugate_pair_coeffs,
    maximal_conjugate,
    minimal_conjugate,
    p1_gradient,
    residual,
    return_trip_error,
    round_trip_error,
    save_field,
    solve,
)
from conftest import affine_field
from maxsurf import duality, forms
from maxsurf.cli import main
from maxsurf.forms import circulations


# ---------------------------------------------------------------------------
# coefficient algebra


@given(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2))
def test_conjugate_coeff_norm(g):
    g = np.asarray(g)
    p, q = conjugate_pair_coeffs(g)
    norm_sq = p * p + q * q
    big_w = np.sqrt(1.0 + g @ g)
    assert norm_sq == pytest.approx((g @ g) / (1.0 + g @ g), abs=1e-15)
    # the conjugate coefficients are strictly shorter than 1, and their
    # Lorentzian density is the reciprocal of the Euclidean one
    assert norm_sq < 1.0
    assert np.sqrt(1.0 - norm_sq) * big_w == pytest.approx(1.0, rel=1e-12)


def test_conjugate_coeffs_batched():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((50, 2))
    batch = conjugate_pair_coeffs(g)
    assert batch.shape == (50, 2)
    for row, grad in zip(batch, g):
        np.testing.assert_allclose(row, conjugate_pair_coeffs(grad), rtol=0.0)


def test_conjugate_coeffs_rotate_gradient():
    # (p, q) is the gradient rotated a quarter turn and shrunk by W
    g = np.array([0.3, -0.4])
    p, q = conjugate_pair_coeffs(g)
    big_w = np.sqrt(1.25)
    assert (p, q) == (pytest.approx(-0.4 / big_w), pytest.approx(-0.3 / big_w))


# ---------------------------------------------------------------------------
# affine fields, where conjugation is exact


def test_affine_maximal_conjugate(square16):
    a, b = 0.3, -0.4
    u = affine_field(square16, a, b, 0.7)
    psi = maximal_conjugate(square16, u)
    big_w = np.sqrt(1.0 + a * a + b * b)
    x, y = square16.vertices.T
    expected = (b * x - a * y) / big_w
    expected -= expected[0]
    np.testing.assert_allclose(psi, expected, atol=1e-13)


def test_affine_minimal_conjugate(square16):
    v = affine_field(square16, 0.6, 0.0)
    u = minimal_conjugate(square16, v)
    np.testing.assert_allclose(u, 0.75 * square16.vertices[:, 1], atol=1e-13)


def test_affine_round_trip_is_exact(square16):
    u = affine_field(square16, 0.3, -0.4, 0.7)
    assert round_trip_error(square16, u, direction="min2max") < 1e-12
    v = affine_field(square16, 0.6, 0.0)
    assert round_trip_error(square16, v, direction="max2min") < 1e-12


def test_conjugate_ignores_constant_shift(square16):
    u = affine_field(square16, 0.3, -0.4)
    np.testing.assert_allclose(maximal_conjugate(square16, u + 5.0),
                               maximal_conjugate(square16, u), atol=1e-13)
    v = affine_field(square16, 0.5, 0.2)
    np.testing.assert_allclose(minimal_conjugate(square16, v - 2.0),
                               minimal_conjugate(square16, v), atol=1e-13)


# ---------------------------------------------------------------------------
# solved fields


def test_conjugate_form_circulation_is_residual(mse_solution):
    # closedness of the conjugate form and the Euclidean equation are the
    # same statement; the loop integrals reproduce the residual exactly
    mesh, u = mse_solution
    beta = conjugate_pair_coeffs(p1_gradient(mesh, u))
    circ = circulations(mesh, beta)
    res = residual(mesh, Evaluation(mesh, u, "euclid"))
    np.testing.assert_array_equal(circ[mesh.interior_vertices], res)


def test_conjugate_of_solution_is_spacelike(mse_solution):
    mesh, u = mse_solution
    psi = maximal_conjugate(mesh, u)
    norms = np.linalg.norm(p1_gradient(mesh, psi), axis=1)
    assert norms.max() < 1.0
    assert psi[0] == 0.0


def test_nonsolution_is_rejected(square16):
    # an arbitrary trace that has not been solved fails the closedness gate
    x, y = square16.vertices.T
    u = 0.2 * np.sin(3.0 * x) * np.cos(2.0 * y)
    with pytest.raises(ClosednessError):
        maximal_conjugate(square16, u)
    v = 0.3 * np.sin(2.0 * x) * y
    with pytest.raises(ClosednessError):
        minimal_conjugate(square16, v)


def test_closedness_tolerance_is_adjustable(square16):
    x, y = square16.vertices.T
    u = 0.2 * np.sin(3.0 * x) * np.cos(2.0 * y)
    psi = maximal_conjugate(square16, u, closedness_tol=1e6)
    assert np.isfinite(psi).all()


def test_round_trip_direction_validated(square16):
    u = affine_field(square16, 0.1, 0.1)
    with pytest.raises(ValueError, match="direction"):
        round_trip_error(square16, u, direction="sideways")


@pytest.mark.parametrize("direction", ["min2max", "max2min"])
def test_return_trip_reuses_the_forward_conjugate(mse_solution, direction):
    mesh, u = mse_solution
    field = u if direction == "min2max" else maximal_conjugate(mesh, u)
    tol = 1e-9 if direction == "min2max" else 1e-2
    conj = (maximal_conjugate(mesh, field, tol) if direction == "min2max"
            else minimal_conjugate(mesh, field, tol))
    assert return_trip_error(mesh, field, conj, direction) == \
        round_trip_error(mesh, field, tol, direction)


def test_dualize_measures_closedness_once_per_leg(mse_solution, tmp_path,
                                                 monkeypatch):
    mesh, u = mse_solution
    path = tmp_path / "u.csv"
    save_field(mesh, u, path)
    calls = []
    real = forms.circulations

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(forms, "circulations", counting)
    assert main(["dualize", "--shape", "rect:1x1", "--h", "0.0625",
                 "--in", str(path), "--direction", "min2max",
                 "--out", str(tmp_path / "d")]) == 0
    # the forward leg's gate, then the return leg's
    assert len(calls) == 2
    calls.clear()
    x, y = mesh.vertices.T
    with pytest.raises(ClosednessError):
        maximal_conjugate(mesh, 0.2 * np.sin(3.0 * x) * np.cos(2.0 * y))
    assert len(calls) == 1


@pytest.mark.parametrize("direction", ["min2max", "max2min"])
def test_dualize_builds_one_potential_tree_per_mesh(tmp_path, monkeypatch,
                                                    direction):
    mesh = build_rectangle(1.0, 1.0, 0.125)
    field = affine_field(mesh, 0.3, -0.2)
    path = tmp_path / "u.csv"
    save_field(mesh, field, path)
    trees = []
    real = forms._bfs_tree

    def counting(mesh):
        trees.append(mesh)
        return real(mesh)

    monkeypatch.setattr(forms, "_bfs_tree", counting)
    tables = []
    real_table = Mesh.neighbors.fget

    def counting_table(mesh):
        tables.append(mesh)
        return real_table(mesh)

    monkeypatch.setattr(Mesh, "neighbors", property(counting_table))
    assert main(["dualize", "--shape", "rect:1x1", "--h", "0.125",
                 "--in", str(path), "--direction", direction,
                 "--out", str(tmp_path / "d")]) == 0
    # the forward and the return leg share the CLI's mesh and its tree,
    # and the tree's build reads the mesh's neighbor table once
    assert len(trees) == 1
    assert len(tables) == 1 and tables[0] is trees[0]
    round_trip_error(mesh, field, direction=direction)
    round_trip_error(mesh, field, direction=direction)
    assert len(trees) == 2 and trees[1] is mesh
    assert len(tables) == 2 and tables[1] is mesh


@pytest.mark.parametrize("direction", ["min2max", "max2min"])
def test_directions_run_the_conjugates_the_module_holds(tmp_path, monkeypatch,
                                                        direction):
    mesh = build_rectangle(1.0, 1.0, 0.125)
    field = affine_field(mesh, 0.3, -0.2)
    path = tmp_path / "u.csv"
    save_field(mesh, field, path)
    calls = []
    for name in ("maximal_conjugate", "minimal_conjugate"):
        def recording(*args, name=name, real=getattr(duality, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(duality, name, recording)
    forward, back = (("maximal_conjugate", "minimal_conjugate")
                     if direction == "min2max" else
                     ("minimal_conjugate", "maximal_conjugate"))
    assert main(["dualize", "--shape", "rect:1x1", "--h", "0.125",
                 "--in", str(path), "--direction", direction,
                 "--out", str(tmp_path / "d")]) == 0
    round_trip_error(mesh, field, direction=direction)
    assert calls == [forward, back, forward, back]


def test_round_trip_error_shrinks_with_mesh(mse_solution):
    # second-order reconstruction: halving h divides the error by about 4
    mesh16, u16 = mse_solution
    mesh8 = build_rectangle(1.0, 1.0, 1.0 / 8)
    x, y = mesh8.vertices.T
    u8, rep = solve(mesh8, x * x - y * y, SolverConfig(metric="euclid"))
    assert rep.converged
    err8 = round_trip_error(mesh8, u8, direction="min2max")
    err16 = round_trip_error(mesh16, u16, direction="min2max")
    assert 3.0 <= err8 / err16 <= 5.0


def test_round_trip_regression_baseline():
    # generic smooth solve, value frozen when first measured; catches any
    # quiet change in the solve-conjugate-integrate pipeline
    mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
    x, y = mesh.vertices.T
    u, rep = solve(mesh, 0.25 * np.sin(2.0 * x) * np.cos(y),
                   SolverConfig(metric="euclid"))
    assert rep.converged
    err = round_trip_error(mesh, u, direction="min2max")
    assert err == pytest.approx(0.00094406964390096, rel=1e-6)


def test_round_trip_from_reconstruction_needs_loose_gate(mse_solution):
    # a reconstructed potential carries an O(h^2) closedness defect, so the
    # strict input gate rejects it; admitted explicitly, its own round trip
    # is at least as accurate as the original's
    mesh, u = mse_solution
    psi = maximal_conjugate(mesh, u)
    with pytest.raises(ClosednessError):
        round_trip_error(mesh, psi, direction="max2min")
    fwd = round_trip_error(mesh, u, direction="min2max")
    bwd = round_trip_error(mesh, psi, closedness_tol=1e-2, direction="max2min")
    assert bwd < fwd
