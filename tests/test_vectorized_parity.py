"""Parity of the array-at-a-time potential and text I/O with the loops they replaced.

The reference routines below are the former per-triangle and per-line
implementations, kept here verbatim in substance.  The potential must match
its reference's breadth-first tree exactly and its values to 1e-12 of the
field's size (the increments are now summed by numpy instead of ``@``);
the text I/O must match byte for byte and bit for bit.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsurf import (Mesh, SolverConfig, TopologyError, build_annulus,
                     build_rectangle, conjugate_pair_coeffs, integrate_potential,
                     load_mesh, p1_gradient, save_mesh, solve)
from maxsurf.forms import _bfs_tree, _check_form, max_interior_circulation
from maxsurf.records import ROW_BLOCK, fmt, read_csv, write_csv

# ----------------------------------------------------------------------
# reference implementations
# ----------------------------------------------------------------------


def deque_tree(mesh):
    """FIFO tree over triangles from 0, neighbors in ascending order."""
    nbrs = mesh.neighbors
    seen = np.zeros(mesh.triangle_count, dtype=bool)
    seen[0] = True
    parent = np.full(mesh.triangle_count, -1, dtype=np.int64)
    order = [0]
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for slot in np.argsort(nbrs[cur]):
            nxt = nbrs[cur, slot]
            if nxt < 0 or seen[nxt]:
                continue
            seen[nxt] = True
            parent[nxt] = cur
            order.append(nxt)
            queue.append(nxt)
    return np.asarray(order), parent


def loop_potential(mesh, form, closedness_tol=1e-9):
    form = _check_form(mesh, form)
    if mesh.euler_characteristic != 1:
        raise TopologyError("not simply connected")
    if max_interior_circulation(mesh, form) > closedness_tol:
        raise ValueError("form is not closed")
    t = mesh.triangles
    cent = mesh.centroids
    pts = mesh.vertices
    nbrs = mesh.neighbors
    phi = np.zeros(mesh.triangle_count)
    seen = np.zeros(mesh.triangle_count, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for slot in np.argsort(nbrs[cur]):
            nxt = nbrs[cur, slot]
            if nxt < 0 or seen[nxt]:
                continue
            a = t[cur, (slot + 1) % 3]
            b = t[cur, (slot + 2) % 3]
            m = 0.5 * (pts[a] + pts[b])
            phi[nxt] = phi[cur] \
                + float(form[cur] @ (m - cent[cur])) \
                + float(form[nxt] @ (cent[nxt] - m))
            seen[nxt] = True
            queue.append(nxt)
    sums = np.zeros(mesh.vertex_count)
    counts = np.zeros(mesh.vertex_count)
    for i in range(3):
        verts = t[:, i]
        est = phi + np.sum(form * (pts[verts] - cent), axis=1)
        np.add.at(sums, verts, est)
        np.add.at(counts, verts, 1.0)
    u = sums / counts
    boundary = mesh.boundary_vertex_mask
    sums2 = np.zeros(mesh.vertex_count)
    counts2 = np.zeros(mesh.vertex_count)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            vb = t[:, i]
            vn = t[:, j]
            sel = boundary[vb] & ~boundary[vn]
            if not sel.any():
                continue
            est = u[vn[sel]] + np.sum(
                form[sel] * (pts[vb[sel]] - pts[vn[sel]]), axis=1)
            np.add.at(sums2, vb[sel], est)
            np.add.at(counts2, vb[sel], 1.0)
    reachable = counts2 > 0
    u[reachable] = sums2[reachable] / counts2[reachable]
    return u - u[0]


def loop_write_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(n):
            fh.write(",".join(fmt(c[i]) for c in cols) + "\n")


def loop_read_csv(path, header):
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError("header")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ncol = len(header.split(","))
    data = np.empty((len(rows), ncol))
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ValueError("row")
        data[i] = [float(x) for x in row]
    return data


def loop_save_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"{mesh.vertex_count} {mesh.triangle_count} {fmt(mesh.h)}\n")
        for (x, y), c in zip(mesh.vertices, mesh.vertex_class):
            fh.write(f"{fmt(x)} {fmt(y)} {int(c)}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def loop_load_mesh(path):
    with open(path) as fh:
        header = fh.readline().split()
        nv, nt = int(header[0]), int(header[1])
        h = float(header[2])
        vertices = np.empty((nv, 2))
        cls = np.empty(nv, dtype=np.int8)
        for i in range(nv):
            parts = fh.readline().split()
            vertices[i] = (float(parts[0]), float(parts[1]))
            cls[i] = int(parts[2])
        triangles = np.empty((nt, 3), dtype=np.int64)
        for i in range(nt):
            triangles[i] = [int(p) for p in fh.readline().split()]
    return Mesh(vertices, triangles, cls, h, shape_tag="file")


# ----------------------------------------------------------------------
# generated rectangles
# ----------------------------------------------------------------------


@st.composite
def rectangles(draw):
    """Structured rectangle, optionally with interior vertices jittered.

    Each interior vertex moves by at most 0.15 h per coordinate, which
    keeps every triangle of the diagonal-split grid counterclockwise.
    """
    nx = draw(st.integers(1, 12))
    ny = draw(st.integers(1, 12))
    h = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0, 1.0]))
    mesh = build_rectangle(nx * h, ny * h, h)
    if not draw(st.booleans()):
        return mesh
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = mesh.vertices.copy()
    inner = mesh.interior_vertices
    pts[inner] += rng.uniform(-0.15 * h, 0.15 * h, size=(len(inner), 2))
    return Mesh(pts, mesh.triangles, mesh.vertex_class, h, shape_tag="jittered")


def closed_form(mesh, kind, seed):
    """A closed form on the mesh: a P1 gradient or a solved conjugate form."""
    rng = np.random.default_rng(seed)
    if kind == "gradient":
        return p1_gradient(mesh, rng.normal(scale=3.0, size=mesh.vertex_count))
    x, y = mesh.vertices.T
    a, b, c = rng.uniform(-1.0, 1.0, size=3)
    u = a * (x * x - y * y) + b * x * y + c * x
    if len(mesh.interior_vertices):  # else any field is a solution
        u, report = solve(mesh, u, SolverConfig(metric="euclid"))
        assert report.converged
    return conjugate_pair_coeffs(p1_gradient(mesh, u))


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(mesh=rectangles())
def test_bfs_tree_matches_deque(mesh):
    order, pred = _bfs_tree(mesh)
    ref_order, ref_parent = deque_tree(mesh)
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(pred[order[1:]], ref_parent[ref_order[1:]])
    assert pred[0] < 0


@settings(max_examples=40, deadline=None)
@given(mesh=rectangles(), kind=st.sampled_from(["gradient", "conjugate"]),
       seed=st.integers(0, 2**32 - 1))
def test_potential_matches_loop(mesh, kind, seed):
    form = closed_form(mesh, kind, seed)
    tol = 1e-6  # solved forms are closed to the solver's residual
    ref = loop_potential(mesh, form, tol)
    got = integrate_potential(mesh, form, tol)
    scale = max(float(np.abs(ref).max()), 1e-300)
    assert np.abs(got - ref).max() <= 1e-12 * scale


def test_potential_matches_loop_on_larger_grid():
    mesh = build_rectangle(1.0, 1.0, 1.0 / 48)
    form = closed_form(mesh, "conjugate", 3)
    ref = loop_potential(mesh, form)
    got = integrate_potential(mesh, form)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ----------------------------------------------------------------------
# text I/O
# ----------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, np.inf, -np.inf, np.nan,
           0.1, 1.0 / 3.0, -2.5e-17, 1e300, 123456789.0]


@settings(max_examples=60, deadline=None)
@given(floats=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_write_csv_bytes_match_loop(tmp_path_factory, floats, seed):
    rng = np.random.default_rng(seed)
    n = len(floats)
    cols = [np.arange(n) - 3, np.asarray(floats, dtype=float),
            rng.integers(-2**62, 2**62, size=n), rng.random(n) < 0.5,
            rng.choice(SPECIAL, size=n)]
    root = tmp_path_factory.mktemp("csv")
    write_csv(root / "new.csv", "i,f,big,flag,special", cols)
    loop_write_csv(root / "old.csv", "i,f,big,flag,special", cols)
    assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()


@pytest.mark.parametrize("columns", [[], [np.empty(0)],
                                     [np.arange(0), np.empty(0)],
                                     [np.array(SPECIAL)],
                                     [np.array([True, False]), np.array([7, -7])]])
def test_write_csv_edge_columns_match_loop(tmp_path, columns):
    header = ",".join(f"c{i}" for i in range(max(len(columns), 1)))
    write_csv(tmp_path / "new.csv", header, columns)
    loop_write_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_across_row_blocks_matches_loop(tmp_path):
    n = 2 * ROW_BLOCK + 3
    rng = np.random.default_rng(5)
    cols = [np.arange(n), rng.normal(size=n), np.resize(SPECIAL, n)]
    write_csv(tmp_path / "new.csv", "i,f,special", cols)
    loop_write_csv(tmp_path / "old.csv", "i,f,special", cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "x.csv", "a,b", [np.arange(3), np.arange(2)])


@settings(max_examples=60, deadline=None)
@given(floats=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=30))
def test_read_csv_bits_match_loop(tmp_path_factory, floats):
    n = len(floats)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, "i,f,special", [np.arange(n), np.asarray(floats),
                                    np.resize(SPECIAL, n)])
    got = read_csv(path, "i,f,special")
    ref = loop_read_csv(path, "i,f,special")
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=25, deadline=None)
@given(mesh=rectangles())
def test_mesh_text_matches_loop(tmp_path_factory, mesh):
    root = tmp_path_factory.mktemp("mesh")
    save_mesh(mesh, root / "new.txt")
    loop_save_mesh(mesh, root / "old.txt")
    assert (root / "new.txt").read_bytes() == (root / "old.txt").read_bytes()
    got = load_mesh(root / "new.txt")
    ref = loop_load_mesh(root / "new.txt")
    assert got.vertices.tobytes() == ref.vertices.tobytes()
    np.testing.assert_array_equal(got.triangles, ref.triangles)
    np.testing.assert_array_equal(got.vertex_class, ref.vertex_class)
    assert got.h == ref.h


def test_annulus_mesh_text_matches_loop(tmp_path):
    mesh = build_annulus(1.0, 2.0, 0.1, artificial_rings=["outer"])
    save_mesh(mesh, tmp_path / "new.txt")
    loop_save_mesh(mesh, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    got = load_mesh(tmp_path / "new.txt")
    ref = loop_load_mesh(tmp_path / "new.txt")
    assert got.vertices.tobytes() == ref.vertices.tobytes()
    np.testing.assert_array_equal(got.vertex_class, ref.vertex_class)
