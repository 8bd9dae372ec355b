"""Shared fixtures: small meshes and reference solves reused across files."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix

from maxsurf import (Mesh, SolverConfig, build_annulus, build_rectangle,
                     p1_gradient, save_field, solve)
from maxsurf.solver import _csr


@pytest.fixture(scope="session")
def square16():
    return build_rectangle(1.0, 1.0, 1.0 / 16.0)


@pytest.fixture(scope="session")
def square4():
    return build_rectangle(1.0, 1.0, 0.25)


@pytest.fixture(scope="session")
def annulus_coarse():
    return build_annulus(1.0, 2.0, 0.1)


def read_record(path):
    """The key=value pairs of a record file, values as strings."""
    with open(path) as fh:
        pairs = [line.strip().partition("=") for line in fh if line.strip()]
    return {key: value for key, _, value in pairs}


def affine_field(mesh, a, b, c=0.0):
    return a * mesh.vertices[:, 0] + b * mesh.vertices[:, 1] + c


def nan_coordinate_field(path, mesh, column):
    """A field file of ``mesh`` whose vertex 3 has nan in column x or y."""
    save_field(mesh, affine_field(mesh, 0.1, 0.0), path)
    header, *lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[{"x": 1, "y": 2}[column]] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join([header, *lines]) + "\n")


def jittered(mesh, seed):
    """The mesh with interior vertices moved, every triangle kept CCW.

    Each coordinate moves by at most a fifth of the smallest triangle
    height, so no vertex crosses the line of an opposite edge.
    """
    p = mesh.vertices[mesh.triangles]
    longest = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).max(axis=1)
    step = 0.2 * float((2.0 * mesh.areas / longest).min())
    rng = np.random.default_rng(seed)
    pts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    pts[inner] += rng.uniform(-step, step, size=(len(inner), 2))
    return Mesh(pts, mesh.triangles, mesh.vertex_class, mesh.h)


def cotan_laplacian(mesh):
    """Full (V, V) sparse P1 stiffness matrix from the cotangent formula.

    Each triangle adds cot(theta) / 2 to the Laplacian of the edge facing
    its corner angle theta; built independently of the solver's kernels.
    """
    rows, cols, vals = [], [], []
    for loc in range(3):
        opp, i, j = (mesh.triangles[:, (loc + k) % 3] for k in range(3))
        e1 = mesh.vertices[i] - mesh.vertices[opp]
        e2 = mesh.vertices[j] - mesh.vertices[opp]
        half_cot = 0.5 * np.sum(e1 * e2, axis=1) / np.abs(
            e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-half_cot, -half_cot, half_cot, half_cot]
    n = mesh.vertex_count
    return coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()


def scipy_csr(k):
    """The solver's CSR matrix as scipy's, for scipy's solvers and products."""
    return csr_matrix((k.data, k.indices, k.indptr), shape=k.shape)


def solver_csr(a):
    """A scipy sparse matrix as the solver's CSR type, through ``_csr``."""
    a = a.tocsr()
    return _csr(a.data, a.indices, a.indptr, a.shape)


def spacelike_field(mesh, seed, steepest=0.5):
    """Random vertex field scaled so that its steepest triangle has |grad| = steepest."""
    v = np.random.default_rng(seed).standard_normal(mesh.vertex_count)
    return v * (steepest / np.linalg.norm(p1_gradient(mesh, v), axis=1).max())


@pytest.fixture(scope="session")
def solved_pair(square16):
    """Two distinct converged Lorentzian solutions on the same mesh."""
    v, rep = solve(square16, affine_field(square16, 0.5, 0.0))
    bc = 0.3 * np.sin(np.pi * square16.vertices[:, 0]) * square16.vertices[:, 1]
    vp, rep_p = solve(square16, bc)
    assert rep.converged and rep_p.converged
    return square16, v, vp


@pytest.fixture(scope="session")
def mse_solution(square16):
    """Converged Euclidean solution with the x^2 - y^2 boundary trace."""
    x, y = square16.vertices.T
    u, rep = solve(square16, x * x - y * y, SolverConfig(metric="euclid"))
    assert rep.converged
    return square16, u


# ----------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion in the summary
# ----------------------------------------------------------------------

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
