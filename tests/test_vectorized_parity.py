"""Parity of the array-at-a-time layers with the loops they replaced.

The reference routines below are the former per-triangle, per-chunk and
per-line implementations, kept here verbatim in substance.  The potential
must match its reference's breadth-first tree exactly and its values to
1e-12 of the field's size (the increments are now summed by numpy instead
of ``@``); the text I/O must match byte for byte and bit for bit; the
mesh generators and the edge table must match bit for bit.  The mesh's
one-pass topology, with slot keys built in place, a union-find hooked once
per shared edge and the neighbor table built on first read, must match the
former edge table bit for bit and give the former union-find's and
csgraph's connectivity verdict, also on disconnected triangle sets.  The
tangent matrix must keep its sparsity pattern exactly and its entries to
1e-14 of the largest (they are now summed per edge by ``bincount``, with
each diagonal entry minus its row's off-diagonal sum), also for fields
within 0.05 of the light cone.  The flux scan's exact circle arcs replaced
inscribed polygons clipped with a k-d tree; they must match that scan
within its chord error (``assert_scan_matches_polygon``).  The solver's
column-layout kernels (gradient, energy, residual, Newton matrix and the
basis gradients) do the arithmetic of the einsum kernels they replaced in
the same order, corners 0, 1, 2 from the left, and must match them bit for
bit; the energy's reference is summed by the solver's own reduction.  PCG,
whose inner products and norms are no longer summed by BLAS, must take the
matvecs of the former loop and match its achieved residual and solution to
within the rounding that finite-precision CG carries forward, unless the
two meet a tie at the stopping test (``test_pcg_matches_blas_summed_loop``).
Boundary expressions, now parsed by Python's ``ast`` with float64
constants, must match the former recursive-descent parser bit for bit
wherever that parser returned a real array, and reject what it rejected.
The potential's vertex averages, now one ``bincount`` each, must match
the former ``np.add.at`` loops bit for bit on the same triangle
potential.  The circulations, now the solver's weak divergence of the
rotated form, must match the former ``np.roll`` edge vectors within
CIRCULATION_ULPS of the per-vertex sum of |p dx| + |q dy|, and the weak
divergence must be the adjoint of the P1 gradient to rounding.
The multigrid aggregates, now chosen from two one-link passes over the
strength graph, must match those of its squared graph exactly.  The
bottom level's inverse, now one symmetric sweep in numpy's own loops,
must match both former inverses, the positive-eigenpair pseudo-inverse
and the pivoted LDL^T elimination with the Takahashi recurrence, to 1e-9
of its largest entry plus the condition number times 1e-15 (either
inverse carries an error of about the condition number times the rounding
unit), drop the pivots the elimination dropped, be bitwise symmetric also
for a matrix symmetric only to rounding, and on a singular positive
semidefinite matrix be a symmetric positive semidefinite generalized
inverse.  The Newton matrix's data, now gathered straight from the edge
values with the diagonal put in place, and its corner pairs, now written
into preallocated rows, must match the former concatenated gather bit for
bit.  The level region's clearances, now read from the sorted differences'
neighbours of each candidate, must match the per-candidate passes bit for
bit.  The scan's margin and the margin of every solver step row must match
the margin of gradients solved from the corner values within 1e-12
relative.  The triangle kernels, now run one block of triangles at a
time and summed by ``np.add.at`` over int32 index tables, must match the
whole-array kernels with one ``bincount`` per sum (``oracles``) bit for
bit, with fewer triangles than a block, exactly one block, and a last
block cut short.
"""

import contextlib
import math
import re
import warnings
from unittest import mock
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from maxsurf import (Evaluation, LevelRegion, Mesh, NonConvergenceError,
                     SolverConfig, TopologyError, build_annulus,
                     build_rectangle, cg_solve, circulations,
                     conjugate_pair_coeffs, energy, flux_form, flux_scan,
                     integrate_potential, level_region, load_mesh,
                     p1_divergence, p1_gradient, polyline_pieces, residual,
                     save_mesh, solve, tangent_matrix)
from maxsurf.expressions import (FUNCTIONS, VARIABLES, Expression,
                                 ExpressionError)
from maxsurf import mesh as mesh_module
from maxsurf.mesh import _edge_connected, table_dtype
from maxsurf.forms import (_bfs_tree, _check_form, _potential_tree,
                           max_interior_circulation)
from maxsurf.uniqueness import LEVEL_CANDIDATES, _circle_sums
from maxsurf.records import ROW_BLOCK, fmt, read_csv, write_csv
from maxsurf import solver as solver_module
from maxsurf.solver import (COARSE_RCOND, SIGMA_MIN, STRENGTH_THETA, _CSR,
                            _AssemblyPlan, _aggregates, _csr,
                            _dense_inverse, _dot, _index_dtype, _VCycle)
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse._sputils import get_index_dtype

from conftest import jittered, scipy_csr, solver_csr, spacelike_field
from oracles import (corner_gradients, gradient_margin, keyed_assembly_plan,
                     six_slot_boundary_pairs, stored_offset_potential,
                     whole_array_basis_columns, whole_array_centroids,
                     whole_array_gradient, whole_array_p1_divergence,
                     whole_array_polyline_pieces, whole_array_residual,
                     whole_array_tangent_data)

# the former polyline clipper's tolerances
BARY_TOL = 1e-9
PARAM_MERGE_TOL = 1e-12
EPS = np.finfo(float).eps
CIRCULATION_ULPS = 8  # of the per-vertex sum of |p dx| + |q dy|
ADJOINT_TOL = 1e-13   # of the sum of the magnitudes of the products

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
    return add_at_vertex_potential(mesh, form, phi)


def add_at_vertex_potential(mesh, form, phi):
    """Former vertex averages of the triangle potential ``phi``: np.add.at
    over the corners, then over the boundary-interior corner pairs."""
    t = mesh.triangles
    cent = mesh.centroids
    pts = mesh.vertices
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


def sliced_tree_potential(mesh, form):
    """Triangle potential as ``integrate_potential`` sums it, one
    breadth-first level at a time."""
    t = mesh.triangles
    cent = mesh.centroids
    pts = mesh.vertices
    order, pred, _, _ = _bfs_tree(mesh)
    child = order[1:]
    parent = pred[child]
    slot = np.argmax(mesh.neighbors[parent] == child[:, None], axis=1)
    m = 0.5 * (pts[t[parent, (slot + 1) % 3]] + pts[t[parent, (slot + 2) % 3]])
    inc1 = np.sum(form[parent] * (m - cent[parent]), axis=1)
    inc2 = np.sum(form[child] * (cent[child] - m), axis=1)
    pos = np.empty(mesh.triangle_count, dtype=np.int64)
    pos[order] = np.arange(mesh.triangle_count)
    parent_pos = pos[parent]
    phi = np.zeros(mesh.triangle_count)
    start = 0
    while start < len(child):
        stop = int(np.searchsorted(parent_pos, start + 1))
        sel = slice(start, stop)
        phi[child[sel]] = (phi[parent[sel]] + inc1[sel]) + inc2[sel]
        start = stop
    return phi


def roll_circulations(mesh, form):
    """Former circulations, the form dotted with half the opposite-edge
    vector from ``np.roll``, and per vertex the sum of the magnitudes of
    the products p dx and q dy that make them."""
    t = mesh.triangles
    pts = mesh.vertices[t]
    delta = 0.5 * (np.roll(pts, -2, axis=1) - np.roll(pts, -1, axis=1))
    products = form[:, None, :] * delta
    return [np.bincount(t.ravel(), weights=w.ravel(),
                        minlength=mesh.vertex_count)
            for w in (np.sum(products, axis=2),
                      np.sum(np.abs(products), axis=2))]


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
    return Mesh(vertices, triangles, cls, h)


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
    return Mesh(pts, mesh.triangles, mesh.vertex_class, h)


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
    order, pred, sizes, slot = _bfs_tree(mesh)
    ref_order, ref_parent = deque_tree(mesh)
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(pred[order[1:]], ref_parent[ref_order[1:]])
    assert pred[0] < 0
    # each triangle lies across its slot of its predecessor
    child = order[1:]
    np.testing.assert_array_equal(mesh.neighbors[pred[child], slot[child]],
                                  child)
    # the level sizes are the counts of the deque tree's depths
    depth = np.zeros(mesh.triangle_count, dtype=np.int64)
    for t in ref_order[1:]:
        depth[t] = depth[ref_parent[t]] + 1
    assert sizes == np.bincount(depth).tolist()


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


# ----------------------------------------------------------------------
# circle scan, generators and edge table: references
# ----------------------------------------------------------------------


def circle_polyline(radius, seg_len):
    """Closed inscribed polygon of the circle, segments at most seg_len."""
    n = max(8, int(math.ceil(2.0 * math.pi * radius / seg_len)))
    ang = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    return np.vstack([pts, pts[:1]])


def segment_pieces(mesh, locator, p, q):
    """Pieces of the segment p -> q in the triangles near it.

    Cut at every crossing with an edge of a candidate triangle (a
    centroid within reach of the segment); each piece goes to the
    lowest-index candidate containing its midpoint.  Yields
    (triangle, piece vector, piece midpoint).
    """
    tree, reach = locator
    d = q - p
    cands = np.sort(np.asarray(tree.query_ball_point(
        0.5 * (p + q), reach + 0.5 * float(np.hypot(*d)) + 1e-12),
        dtype=np.int64))
    if len(cands) == 0:
        return
    corners = mesh.vertices[mesh.triangles[cands]]
    ts = [0.0, 1.0]
    for i in range(3):
        a_pts = corners[:, i]
        e = corners[:, (i + 1) % 3] - a_pts
        denom = d[0] * e[:, 1] - d[1] * e[:, 0]
        ok = np.abs(denom) > 1e-15
        w = a_pts - p
        t_par = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0])[ok] / denom[ok]
        s_par = (w[:, 0] * d[1] - w[:, 1] * d[0])[ok] / denom[ok]
        hit = (s_par >= -1e-12) & (s_par <= 1 + 1e-12) & \
              (t_par > PARAM_MERGE_TOL) & (t_par < 1 - PARAM_MERGE_TOL)
        ts.extend(t_par[hit].tolist())
    ts = sorted(set(round(t / PARAM_MERGE_TOL) * PARAM_MERGE_TOL for t in ts))
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if t1 - t0 <= PARAM_MERGE_TOL:
            continue
        mid = p + (0.5 * (t0 + t1)) * d
        bary = barycentric(corners, mid)
        hits = np.flatnonzero(bary.min(axis=1) >= -BARY_TOL)
        if len(hits):
            yield int(cands[hits[0]]), (t1 - t0) * d, mid


def barycentric(corners, point):
    d = point - corners[:, 0]
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=1)


def polygon_scan(mesh, alpha, radii, triangles):
    """The flux scan's line sums as the inscribed-polygon scan took them.

    Each circle is its inscribed polygon with segments of at most h/2,
    clipped to the triangles one segment at a time with a k-d tree over
    the centroids (the former scan cut segments into chunks of at most h,
    which leaves these segments whole).  Returns (length, eta, sq_line)
    per radius.
    """
    from scipy.spatial import cKDTree

    off = mesh.vertices[mesh.triangles] - mesh.centroids[:, None, :]
    locator = (cKDTree(mesh.centroids),
               float(np.sqrt((off ** 2).sum(axis=2).max())))
    mask = np.zeros(mesh.triangle_count, dtype=bool)
    mask[triangles] = True
    out = np.zeros((3, len(radii)))
    for k, r in enumerate(radii):
        loop = circle_polyline(r, 0.5 * mesh.h)
        for p, q in zip(loop[:-1], loop[1:]):
            for tri, piece, _ in segment_pieces(mesh, locator, p, q):
                if not mask[tri]:
                    continue
                size = float(np.hypot(*piece))
                norm = float(np.hypot(*alpha[tri]))
                out[:, k] += [size, norm * size, norm * norm * size]
    return out


def unsettled_edges(mesh, triangles, inner, outer):
    """Edges that meet the band inner <= |x| <= outer and either bound the
    triangle subset or take their least or largest distance to the origin
    inside the band: where such an edge passes, a polygon lying in the band
    and the circle of radius outer can fall on different sides of it."""
    ends = mesh.vertices[mesh.edges]
    a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    end_dist = np.linalg.norm(ends, axis=2)
    t = -np.sum(a * d, axis=1) / np.sum(d * d, axis=1)
    foot = (t > 0.0) & (t < 1.0)
    foot_dist = np.where(foot, np.linalg.norm(a + t[:, None] * d, axis=1),
                         end_dist.min(axis=1))
    lo, hi = inner * (1.0 - 1e-9), outer * (1.0 + 1e-9)
    meets = (foot_dist <= hi) & (end_dist.max(axis=1) >= lo)
    extremum = ((end_dist >= lo) & (end_dist <= hi)).any(axis=1) \
        | (foot & (foot_dist >= lo) & (foot_dist <= hi))
    sides = np.bincount(mesh.triangle_edges[triangles].ravel(),
                        minlength=len(mesh.edges))
    return int(np.count_nonzero(meets & (extremum | (sides == 1))))


def loop_rectangle_triangles(nx, ny):
    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return np.asarray(tris, dtype=np.int64)


def loop_annulus_triangles(n_r, n_theta):
    def vid(i, j):
        return i * n_theta + (j % n_theta)

    tris = []
    for i in range(n_r):
        for j in range(n_theta):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return np.asarray(tris, dtype=np.int64)


def sorted_rows_edge_data(triangles):
    """Edge table from np.unique over sorted (3T, 2) vertex-pair rows."""
    t = np.asarray(triangles, dtype=np.int64)
    raw = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]],
                   axis=1).reshape(-1, 2)
    edges, inverse, counts = np.unique(np.sort(raw, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    tri_edges = inverse.reshape(-1, 3)
    neighbors = np.full((len(t), 3), -1, dtype=np.int64)
    order = np.argsort(inverse.ravel(), kind="stable")
    eid = inverse.ravel()[order]
    a = np.where(eid[:-1] == eid[1:])[0]
    neighbors[order[a] // 3, order[a] % 3] = order[a + 1] // 3
    neighbors[order[a + 1] // 3, order[a + 1] % 3] = order[a] // 3
    return edges, counts, tri_edges, neighbors


def former_edge_data(triangles, nv):
    """Edge table as the mesh built it before its one-pass topology: keys
    from (3T,) copies of the slot ends, and the whole neighbor table."""
    t = triangles
    # edge slot i is opposite corner i
    a = t[:, [1, 2, 0]].ravel()
    b = t[:, [2, 0, 1]].ravel()
    keys = np.minimum(a, b) * nv + np.maximum(a, b)
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0  # keys are nonnegative
    first = np.flatnonzero(new)
    counts = np.diff(first, append=len(keys))
    edges = np.column_stack(np.divmod(keys[order[first]], nv))
    tri_edges = np.empty((len(t), 3), dtype=np.int64)
    tri_edges.reshape(-1)[order] = np.cumsum(new) - 1
    neighbors = np.full((len(t), 3), -1, dtype=np.int64)
    pair = np.flatnonzero(~new[1:])  # the two slots of a shared edge
    lower, upper = order[pair], order[pair + 1]  # slot = 3 tri + corner
    neighbors.reshape(-1)[lower] = upper // 3
    neighbors.reshape(-1)[upper] = lower // 3
    return edges, counts, tri_edges, neighbors


def former_edge_connected(neighbors) -> bool:
    """Former union-find, hooked across every slot of the neighbor table."""
    src = np.repeat(np.arange(len(neighbors)), 3)
    dst = neighbors.ravel()
    src, dst = src[dst >= 0], dst[dst >= 0]
    label = np.arange(len(neighbors))
    while True:
        ls, ld = label[src], label[dst]
        hook = ld < ls
        if not hook.any():
            return bool((label == 0).all())
        np.minimum.at(label, ls[hook], ld[hook])
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def csgraph_connected(neighbors) -> bool:
    from scipy.sparse.csgraph import connected_components

    src = np.repeat(np.arange(len(neighbors)), 3)
    dst = neighbors.ravel()
    graph = coo_matrix((np.ones(np.count_nonzero(dst >= 0)),
                        (src[dst >= 0], dst[dst >= 0])),
                       shape=(len(neighbors), len(neighbors)))
    return connected_components(graph, directed=False,
                                return_labels=False) == 1


def table_layouts(count):
    """(block, dtype) ways to build the tables of ``count`` triangles: the
    default blocks; blocks of 7, which straddle every run; a third of the
    triangles a block, so that the last block is cut short; and int64
    tables, which the rule picks only past 2**31 slots.  A dtype of None
    keeps the rule's."""
    return [(mesh_module.TRIANGLE_BLOCK, None), (7, None),
            (1 + count // 3, None), (7, np.int64)]


@contextlib.contextmanager
def tables_built(block, dtype):
    """Mesh tables built ``block`` triangles at a time, in ``dtype`` in
    place of the one ``table_dtype`` picks unless that is None."""
    rule = mesh_module.table_dtype if dtype is None else lambda *counts: dtype
    with mock.patch.object(mesh_module, "TRIANGLE_BLOCK", block), \
            mock.patch.object(mesh_module, "table_dtype", rule):
        yield


def rebuilt(mesh):
    return Mesh(mesh.vertices, mesh.triangles, mesh.vertex_class, mesh.h)


def unvalidated_mesh(triangles, nv):
    """A mesh of the triangles that skips the checks, so that its topology
    can be read where they would reject it (say, on a disconnected one).
    The triangles are stored in the dtype the construction's rule picks."""
    mesh = object.__new__(Mesh)
    dtype = mesh_module.table_dtype(nv, 3 * len(triangles))
    for name, value in (("vertices", np.zeros((nv, 2))),
                        ("triangles", triangles.astype(dtype)),
                        ("vertex_class", np.zeros(nv, dtype=np.int8)),
                        ("h", 1.0)):
        object.__setattr__(mesh, name, value)
    return mesh


# ----------------------------------------------------------------------
# generated annuli, relabelled meshes and scan data
# ----------------------------------------------------------------------


@st.composite
def annuli(draw):
    """Structured annulus, optionally with interior vertices jittered.

    h and the radii set both counts: n_r rings of width h, and from 13 to
    132 angular divisions.
    """
    r_inner = draw(st.sampled_from([0.5, 1.0, 1.5]))
    h = draw(st.sampled_from([0.1, 0.25, 0.5]))
    n_r = draw(st.integers(1, 6))
    mesh = build_annulus(r_inner, r_inner + n_r * h, h)
    if draw(st.booleans()):
        mesh = jittered(mesh, draw(st.integers(0, 2**32 - 1)))
    return mesh


def meshes():
    return st.one_of(rectangles(), annuli())


@st.composite
def relabelled(draw, mesh_strategy):
    """The mesh with its vertices, triangles and corners reordered."""
    mesh = draw(mesh_strategy)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(mesh.vertex_count)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(len(perm))
    tris = new_id[mesh.triangles][rng.permutation(mesh.triangle_count)]
    shift = rng.integers(0, 3, size=len(tris))
    tris = np.take_along_axis(tris, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return Mesh(mesh.vertices[perm], tris, mesh.vertex_class[perm], mesh.h)


@st.composite
def scan_annuli(draw):
    """Annulus with about square cells, as the flux scan meets them."""
    r_inner = draw(st.sampled_from([0.5, 1.0, 1.5]))
    h = draw(st.sampled_from([0.1, 0.25, 0.5]))
    mesh = build_annulus(r_inner, r_inner + draw(st.integers(2, 6)) * h, h)
    if draw(st.booleans()):
        mesh = jittered(mesh, draw(st.integers(0, 2**32 - 1)))
    return mesh


@st.composite
def scan_fields(draw, mesh):
    """Two fields, each affine plus a log|x| part a twentieth as steep, whose
    gradients differ by 0.2 to 0.4.

    The inscribed polygon lies up to r (1 - cos(pi/n)) inside the circle,
    so it reads the weights |alpha| and |alpha|^2 that far in: where they
    fall off like 1/r, as for a catenoid, that shifts sq_line by more than
    the chord error.  With nearly constant weights, as in the benchmark's
    separation experiment, the chord error is the whole difference.
    """
    x, y = mesh.vertices.T
    log_r = np.log(np.hypot(x, y))
    a, b, c, cp = (draw(st.floats(-0.3, 0.3)) for _ in range(4))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    size = draw(st.floats(0.2, 0.4))
    v = a * x + b * y + 0.05 * c * log_r
    vp = (a - size * math.cos(angle)) * x + (b - size * math.sin(angle)) * y \
        + 0.05 * cp * log_r
    return v, vp


@st.composite
def scan_radii(draw, mesh):
    rad = np.hypot(*mesh.vertices.T)
    r_in, r_out = float(rad.min()), float(rad.max())
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return np.unique(r_in + np.asarray(fracs) * (r_out - r_in))


def assert_scan_matches_polygon(mesh, v, vp, radii, triangles):
    """The exact arcs agree with the polygon scan within its chord error.

    The polygon with segments of length seg = 2 r sin(pi/n) <= h/2 is
    shorter than its circle by (seg/r)^2/24; twice that bounds length, eta
    and sq_line.  Each edge that can put the polygon and the circle on
    different sides (``unsettled_edges``) may add up to one segment length
    times the largest weight.
    """
    alpha = flux_form(mesh, v) - flux_form(mesh, vp)
    got = _circle_sums(mesh, alpha, radii, triangles)
    ref = polygon_scan(mesh, alpha, radii, triangles)
    norm = float(np.linalg.norm(alpha[triangles], axis=1).max(initial=0.0))
    weights = [1.0, norm, norm * norm]
    for k, r in enumerate(radii):
        n = max(8, int(math.ceil(2.0 * math.pi * r / (0.5 * mesh.h))))
        seg = 2.0 * r * math.sin(math.pi / n)
        edges = unsettled_edges(mesh, triangles, r * math.cos(math.pi / n), r)
        for i, name in enumerate(["length", "eta", "sq_line"]):
            tol = (seg / r) ** 2 / 12.0 * abs(ref[i, k]) \
                + edges * seg * weights[i]
            assert abs(got[i][k] - ref[i, k]) <= tol, (name, r, edges)


# ----------------------------------------------------------------------
# circle scan, generators and edge table: parity
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data(), mesh=st.one_of(scan_annuli(), relabelled(scan_annuli())))
def test_circle_pieces_match_loop(data, mesh):
    v, vp = data.draw(scan_fields(mesh))
    assert_scan_matches_polygon(mesh, v, vp, data.draw(scan_radii(mesh)),
                                np.arange(mesh.triangle_count))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), mesh=scan_annuli(),
       subset=st.sampled_from(["ring", "half"]), seed=st.integers(0, 2**32 - 1))
def test_polyline_pieces_match_loop_with_clip(data, mesh, subset, seed):
    # a ring of centroid radii, as a level region of radial data, or half
    # of the triangles at random
    rng = np.random.default_rng(seed)
    rad = np.linalg.norm(mesh.centroids, axis=1)
    if subset == "ring":
        lo, hi = np.sort(rng.uniform(rad.min(), rad.max(), 2))
        tris = np.flatnonzero((rad >= lo) & (rad <= hi))
    else:
        tris = np.flatnonzero(rng.random(mesh.triangle_count) < 0.5)
    v, vp = data.draw(scan_fields(mesh))
    assert_scan_matches_polygon(mesh, v, vp, data.draw(scan_radii(mesh)), tris)


def test_scan_circle_pieces_match_loop():
    # the separation experiment's shape: a region beyond r = 2 on the
    # annulus 1 < r < 4, circles well inside it
    mesh = build_annulus(1.0, 4.0, 0.05, artificial_rings=("outer",))
    tris = np.flatnonzero(np.linalg.norm(mesh.centroids, axis=1) > 2.0)
    x, y = mesh.vertices.T
    r = np.hypot(x, y)
    v = 0.3 * x + 0.02 * np.log(r)
    vp = -0.1 * y - 0.03 * np.log(r)
    assert_scan_matches_polygon(mesh, v, vp, np.array([2.2, 3.1, 3.9]), tris)


def test_polyline_pieces_rejects_bad_radii(square4):
    for bad in ([0.5, np.nan], [[0.5]], [0.5, 0.5], [-0.5, 0.5], [0.0]):
        with pytest.raises(ValueError, match="radii"):
            polyline_pieces(square4, bad)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 20), ny=st.integers(1, 20),
       h=st.sampled_from([0.05, 0.1, 0.25, 1.0]))
def test_rectangle_triangles_match_loop(nx, ny, h):
    ref = loop_rectangle_triangles(nx, ny)
    for block, dtype in table_layouts(len(ref)):
        with tables_built(block, dtype):
            mesh = build_rectangle(nx * h, ny * h, h)
        assert mesh.triangles.dtype == (dtype or np.int32)
        np.testing.assert_array_equal(mesh.triangles, ref)


@settings(max_examples=60, deadline=None)
@given(n_r=st.integers(1, 12), h=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       r_inner=st.sampled_from([0.25, 1.0, 2.0]))
def test_annulus_triangles_match_loop(n_r, h, r_inner):
    # from 8 (the floor) to 201 angular divisions
    r_outer = r_inner + n_r * h
    n_theta = max(8, round(2.0 * np.pi * r_outer / h))
    ref = loop_annulus_triangles(n_r, n_theta)
    for block, dtype in table_layouts(len(ref)):
        with tables_built(block, dtype):
            mesh = build_annulus(r_inner, r_outer, h)
        assert mesh.vertex_count == (n_r + 1) * n_theta
        assert mesh.triangles.dtype == (dtype or np.int32)
        np.testing.assert_array_equal(mesh.triangles, ref)


@st.composite
def glued_blocks(draw):
    """Blocks of grid triangles, some glued along a shared edge, some not,
    in shuffled order: (triangles, vertex count)."""
    sizes = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tris, offset = [], 0
    for nx, ny in sizes:
        block = loop_rectangle_triangles(nx, ny) + offset
        if tris and rng.random() < 0.5:
            # glue this block's first bottom edge onto the top edge of the
            # previous block's last triangle, joining the two across it
            prev = tris[-1][-1, [1, 2]]
            block = np.where(block == offset, prev[0], block)
            block = np.where(block == offset + 1, prev[1], block)
        tris.append(block)
        offset += (nx + 1) * (ny + 1)
    t = np.concatenate(tris)
    return t[rng.permutation(len(t))], offset


def assert_same_arrays(got, ref):
    for g, r in zip(got, ref, strict=True):
        np.testing.assert_array_equal(g, r)
        assert g.shape == r.shape and g.dtype == r.dtype


def boundary_mask(edges, counts, nv):
    mask = np.zeros(nv, dtype=bool)
    mask[edges[counts == 1].ravel()] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())))
def test_edge_data_matches_sorted_rows(mesh):
    edges, counts, tri_edges, neighbors = sorted_rows_edge_data(mesh.triangles)
    mask = boundary_mask(edges, counts, mesh.vertex_count)
    # the edge tables in the dtype the rule picks, int32 here, or in int64
    assert table_dtype(mesh.vertex_count, 3 * mesh.triangle_count) == np.int32
    for block, dtype in table_layouts(mesh.triangle_count):
        with tables_built(block, dtype):
            got = rebuilt(mesh)
            tables = (got.edges, got.triangle_edges, got.neighbors,
                      got.boundary_vertex_mask)
        want = dtype or np.int32
        assert_same_arrays(tables, (edges.astype(want),
                                    tri_edges.astype(want), neighbors, mask))


def as_case(mesh):
    return mesh.triangles, mesh.vertex_count


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(meshes().map(as_case),
                      relabelled(meshes()).map(as_case), glued_blocks()))
def test_one_pass_topology_matches_former_edge_table(case):
    """Edges, edge ids, neighbors and boundary mask bit for bit, and the
    connectivity verdict, on generated, relabelled and disconnected ones."""
    triangles, nv = case
    edges, counts, tri_edges, neighbors = former_edge_data(
        triangles.astype(np.int64), nv)
    mask = boundary_mask(edges, counts, nv)
    connected = former_edge_connected(neighbors)
    assert connected == csgraph_connected(neighbors)
    # the edge tables in the dtype the rule picks, int32 here, or in int64
    assert table_dtype(nv, 3 * len(triangles)) == np.int32
    for block, dtype in table_layouts(len(triangles)):
        with tables_built(block, dtype):
            mesh = unvalidated_mesh(triangles, nv)
            tables = (mesh.edges, mesh.triangle_edges, mesh.neighbors,
                      mesh.boundary_vertex_mask)
            assert mesh._edge_data[3] == connected
        want = dtype or np.int32
        assert_same_arrays(tables, (edges.astype(want),
                                    tri_edges.astype(want), neighbors, mask))


def gather_areas(mesh):
    """Signed areas from the (T, 3, 2) gather of the corner coordinates."""
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())))
def test_areas_match_corner_gather(mesh):
    areas, means = gather_areas(mesh), mesh.vertices[mesh.triangles].mean(axis=1)
    centroids = whole_array_centroids(mesh)
    basis = whole_array_basis_columns(mesh)
    for block, dtype in table_layouts(mesh.triangle_count):
        with tables_built(block, dtype):
            got = rebuilt(mesh)
            arrays = (got.areas, got.centroids, got.basis_columns)
        assert got.triangles.dtype == (dtype or np.int32)
        np.testing.assert_array_equal(arrays[0], areas)
        np.testing.assert_array_equal(arrays[1], means)
        same_bits(arrays[1], centroids)
        same_bits(arrays[2], basis)


@settings(max_examples=60, deadline=None)
@given(case=glued_blocks())
def test_edge_connected_matches_csgraph(case):
    t, _ = case
    _, counts, _, nbrs = sorted_rows_edge_data(t)
    assert counts.max() <= 2
    tri = np.repeat(np.arange(len(t)), 3)
    upper = nbrs.ravel() > tri  # each shared edge once
    connected = csgraph_connected(nbrs)
    for block, dtype in table_layouts(len(t)):
        tri_a, tri_b = (x.astype(dtype or np.int32)
                        for x in (tri[upper], nbrs.ravel()[upper]))
        with tables_built(block, dtype):
            assert _edge_connected(tri_a, tri_b, len(t)) == connected


# ----------------------------------------------------------------------
# tangent assembly: parity
# ----------------------------------------------------------------------


def coo_tangent(mesh, values, config):
    """Former assembly: 3x3 local matrices of the (T, 2, 2) flux Jacobian,
    COO triplets to CSR, then free rows and columns sliced."""
    g = p1_gradient(mesh, values)
    # the former _flux_jacobian: (T, 2, 2) derivative of the flux map
    norm2 = np.sum(g * g, axis=-1)
    eye = np.eye(2)
    outer = g[:, :, None] * g[:, None, :]
    if config.metric == "lorentz":
        assert np.all(norm2 < (1.0 - SIGMA_MIN) ** 2)
        w3 = (1.0 - norm2) ** 1.5
        dmat = (eye[None, :, :] * (1.0 - norm2)[:, None, None] + outer) / w3[:, None, None]
    else:
        w3 = (1.0 + norm2) ** 1.5
        dmat = (eye[None, :, :] * (1.0 + norm2)[:, None, None] - outer) / w3[:, None, None]
    basis = einsum_basis(mesh)
    local = np.einsum("tid,tde,tje->tij", basis, dmat, basis)
    local *= mesh.areas[:, None, None]
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.vertex_count
    k = coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    free = mesh.interior_vertices
    return k[free][:, free]


@settings(max_examples=80, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_tangent_refill_matches_coo(mesh, metric, seed, steepest):
    config = SolverConfig(metric=metric)
    v = spacelike_field(mesh, seed, steepest)
    got = tangent_matrix(mesh, Evaluation(mesh, v, config.metric))
    ref = coo_tangent(mesh, v, config)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    scale = float(np.abs(ref.data).max(initial=0.0))
    np.testing.assert_allclose(got.data, ref.data, rtol=1e-14,
                               atol=1e-14 * scale)


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(rectangles(), relabelled(rectangles())),
       kind=st.sampled_from(["gradient", "conjugate"]),
       seed=st.integers(0, 2**32 - 1))
@example(mesh=build_rectangle(1.0, 1.0, 1.0), kind="gradient", seed=0)
def test_potential_matches_stored_offsets_bit_for_bit(mesh, kind, seed):
    """The boundary pairs found among triangles with a boundary corner, and
    the potential with offsets formed per call, against the former tree's
    (6, T) pair tables and stored corner offsets."""
    form = closed_form(mesh, kind, seed)
    got = integrate_potential(mesh, form, 1e-6)
    tree = _potential_tree(mesh)
    assert_same_arrays((tree.pair_tri, tree.pair_vertex, tree.pair_from),
                       six_slot_boundary_pairs(mesh))
    assert got.tobytes() == stored_offset_potential(mesh, form).tobytes()


@settings(max_examples=80, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())))
# no free vertex, and one free vertex: no edge between free vertices
@example(mesh=build_rectangle(1.0, 1.0, 1.0))
@example(mesh=build_annulus(1.0, 1.5, 0.5))
@example(mesh=build_rectangle(1.0, 1.0, 0.5))
def test_assembly_plan_matches_keyed_build(mesh):
    plan = _AssemblyPlan(mesh)
    assert_same_arrays(
        (plan.edge_slots, plan.diagonal_slots, plan.indptr, plan.indices),
        keyed_assembly_plan(mesh))


def concatenated_tangent(mesh, values, config):
    """Former gather: (T, 3) corner pairs from whole-array products, then
    the V diagonal and the E edge values twice concatenated and gathered
    by one order into the free block's CSR data."""
    ev = Evaluation(mesh, values, config.metric)
    dens = ev.density
    c1 = mesh.areas / dens
    c2 = c1 / (dens * dens)
    if config.metric == "euclid":
        c2 = -c2
    bx, by = mesh.basis_columns
    bg = bx * ev.gx + by * ev.gy
    pair = np.empty((mesh.triangle_count, 3))
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        pair[:, k] = c1 * (bx[a] * bx[b] + by[a] * by[b]) + c2 * bg[a] * bg[b]
    edge = np.bincount(mesh.triangle_edges.ravel(), weights=pair.ravel(),
                       minlength=len(mesh.edges))
    lo, hi = mesh.edges.T
    n = mesh.vertex_count
    diag = -(np.bincount(lo, weights=edge, minlength=n)
             + np.bincount(hi, weights=edge, minlength=n))
    free = mesh.interior_vertices
    renumber = np.full(n, -1, dtype=np.int64)
    renumber[free] = np.arange(len(free))
    rows = renumber[np.concatenate([np.arange(n), lo, hi])]
    cols = renumber[np.concatenate([np.arange(n), hi, lo])]
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    order = keep[np.argsort(rows[keep] * n + cols[keep], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[order],
                                                        minlength=len(free)))])
    return np.concatenate([diag, edge, edge])[order], cols[order], indptr


@settings(max_examples=80, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_tangent_gather_matches_concatenated_entries(mesh, metric, seed,
                                                     steepest):
    config = SolverConfig(metric=metric)
    v = spacelike_field(mesh, seed, steepest) + 3.0
    got = tangent_matrix(mesh, Evaluation(mesh, v, config.metric))
    data, indices, indptr = concatenated_tangent(mesh, v, config)
    np.testing.assert_array_equal(got.indptr, indptr)
    np.testing.assert_array_equal(got.indices, indices)
    # bit for bit, signed zeros included
    assert got.data.tobytes() == data.tobytes()


# ----------------------------------------------------------------------
# level region: parity with the per-candidate passes
# ----------------------------------------------------------------------


def loop_level_region(mesh, v, vp):
    """Former level choice: one pass over v - v' per candidate."""
    diff = v - vp
    delta = float(diff.max()) / 4.0
    if delta <= 0.0:
        return LevelRegion(a=0.0, delta=delta,
                           triangles=np.empty(0, dtype=np.int64),
                           clearance=math.nan)
    candidates = np.linspace(2.0 * delta, 3.0 * delta, LEVEL_CANDIDATES)
    clearances = np.array([np.abs(diff - c).min() for c in candidates])
    best = int(np.argmax(clearances))
    a = float(candidates[best])
    centroid_diff = diff[mesh.triangles].mean(axis=1)
    tris = np.where(centroid_diff - a > 0.0)[0].astype(np.int64)
    return LevelRegion(a=a, delta=delta, triangles=tris,
                       clearance=float(clearances[best]))


def same_region(got, ref):
    for name in ("a", "delta", "clearance"):
        x, y = getattr(got, name), getattr(ref, name)
        assert np.float64(x).tobytes() == np.float64(y).tobytes(), name
    np.testing.assert_array_equal(got.triangles, ref.triangles)


@settings(max_examples=80, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 1, 2, 5, 40]),
       shift=st.sampled_from([0.0, -0.3, 2.0]))
def test_level_region_matches_candidate_passes(mesh, seed, levels, shift):
    # levels > 0 puts v - v' on a grid, so that candidates meet vertex
    # values and clearances tie; a shift of 2 lifts every value above
    # every candidate
    rng = np.random.default_rng(seed)
    v = spacelike_field(mesh, seed, 0.9)
    vp = spacelike_field(mesh, seed + 1, 0.9)
    if levels:
        diff = np.round(rng.uniform(0.0, levels, mesh.vertex_count))
        v = vp + diff / levels
    v = v + shift
    same_region(level_region(mesh, v, vp), loop_level_region(mesh, v, vp))


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       seed=st.integers(0, 2**32 - 1))
def test_scan_margin_matches_corner_value_gradients(mesh, seed):
    v = spacelike_field(mesh, seed, 0.9) + 1.0
    vp = spacelike_field(mesh, seed + 1, 0.9)
    region = level_region(mesh, v, vp)
    assume(not region.empty)
    # one circle around the whole mesh: the anchor is the region's energy
    radius = 2.0 * float(np.hypot(*mesh.vertices.T).max())
    scan = flux_scan(mesh, v, vp, region, [radius])
    steepest = max(np.linalg.norm(corner_gradients(mesh, f, region.triangles),
                                  axis=1).max() for f in (v, vp))
    assert scan.eps_hat == pytest.approx(1.0 - steepest, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_step_margin_matches_corner_value_gradients(mesh, metric, seed,
                                                    steepest):
    # the margin that solve writes to every step row
    v = spacelike_field(mesh, seed, steepest)
    assert 1.0 - Evaluation(mesh, v, metric).max_norm == \
        pytest.approx(gradient_margin(mesh, v), rel=1e-12)


# ----------------------------------------------------------------------
# column-layout P1 kernels: parity with the einsum kernels they replaced
# ----------------------------------------------------------------------


def einsum_basis(mesh):
    """Former (T, 3, 2) basis gradients, built corner by corner."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty((len(mesh.triangles), 3, 2))
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        out[:, i, 0] = -d[:, 1]
        out[:, i, 1] = d[:, 0]
    out /= (2.0 * mesh.areas)[:, None, None]
    return out


def einsum_gradient(mesh, values):
    return np.einsum("ti,tid->td", values[mesh.triangles], einsum_basis(mesh))


def einsum_density(g, metric):
    norm2 = np.sum(g * g, axis=-1)
    if metric == "lorentz":
        assert np.all(norm2 < (1.0 - SIGMA_MIN) ** 2)
        return np.sqrt(1.0 - norm2)
    return np.sqrt(1.0 + norm2)


def einsum_energy(mesh, values, config):
    # summed as the solver sums it, so that the two agree bit for bit
    g = einsum_gradient(mesh, values)
    return _dot(mesh.areas, einsum_density(g, config.metric))


def einsum_residual(mesh, values, config):
    g = einsum_gradient(mesh, values)
    dens = einsum_density(g, config.metric)
    weighted = mesh.areas[:, None] * (g / dens[:, None])
    local = np.einsum("tid,td->ti", einsum_basis(mesh), weighted)
    full = np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.vertex_count)
    return full[mesh.interior_vertices]


def einsum_tangent(mesh, values, config):
    """Former edge-based fill: corner pairs gathered with fancy indices."""
    g = einsum_gradient(mesh, values)
    dens = einsum_density(g, config.metric)
    c1 = mesh.areas / dens
    c2 = c1 / (dens * dens)
    if config.metric == "euclid":
        c2 = -c2
    basis = einsum_basis(mesh)
    bx, by = basis[..., 0], basis[..., 1]
    bg = np.einsum("tid,td->ti", basis, g)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    pair = (c1[:, None] * (bx[:, nxt] * bx[:, prv] + by[:, nxt] * by[:, prv])
            + c2[:, None] * bg[:, nxt] * bg[:, prv])
    edge = np.bincount(mesh.triangle_edges.ravel(), weights=pair.ravel(),
                       minlength=len(mesh.edges))
    lo, hi = mesh.edges.T
    n = mesh.vertex_count
    diag = -(np.bincount(lo, weights=edge, minlength=n)
             + np.bincount(hi, weights=edge, minlength=n))
    k = coo_matrix((np.concatenate([diag, edge, edge]),
                    (np.concatenate([np.arange(n), lo, hi]),
                     np.concatenate([np.arange(n), hi, lo]))),
                   shape=(n, n)).tocsr()
    k.sort_indices()
    free = mesh.interior_vertices
    return k[free][:, free]


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_column_kernels_match_einsum(mesh, metric, seed, steepest):
    config = SolverConfig(metric=metric)
    v = spacelike_field(mesh, seed, steepest) + 3.0
    assert mesh.basis_columns.shape == (2, 3, mesh.triangle_count)
    np.testing.assert_array_equal(mesh.basis_columns.transpose(2, 1, 0),
                                  einsum_basis(mesh))
    np.testing.assert_array_equal(p1_gradient(mesh, v),
                                  einsum_gradient(mesh, v))
    ev = Evaluation(mesh, v, metric)
    np.testing.assert_array_equal(
        ev.density, einsum_density(einsum_gradient(mesh, v), metric))
    assert energy(mesh, ev) == einsum_energy(mesh, v, config)
    np.testing.assert_array_equal(residual(mesh, ev),
                                  einsum_residual(mesh, v, config))
    got = tangent_matrix(mesh, ev)
    ref = einsum_tangent(mesh, v, config)
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.data, ref.data)


# ----------------------------------------------------------------------
# potential averages and weak divergence: parity
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(rectangles(), relabelled(rectangles())),
       kind=st.sampled_from(["gradient", "conjugate"]),
       seed=st.integers(0, 2**32 - 1))
def test_potential_averages_match_add_at(mesh, kind, seed):
    form = closed_form(mesh, kind, seed)
    ref = add_at_vertex_potential(mesh, form,
                                  sliced_tree_potential(mesh, form))
    np.testing.assert_array_equal(integrate_potential(mesh, form, 1e-6), ref)


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       seed=st.integers(0, 2**32 - 1))
def test_circulations_match_roll(mesh, seed):
    form = np.random.default_rng(seed).standard_normal((mesh.triangle_count, 2))
    ref, magnitude = roll_circulations(mesh, form)
    got = circulations(mesh, form)
    assert np.all(np.abs(got - ref) <= CIRCULATION_ULPS * EPS * magnitude)


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       seed=st.integers(0, 2**32 - 1))
def test_divergence_is_adjoint_of_gradient(mesh, seed):
    # sum_T area_T grad(u) . f = u . div(f), with rounding measured against
    # the sum of the magnitudes of the products u_i area_T grad(phi_i) . f
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(mesh.vertex_count)
    fx, fy = rng.standard_normal((2, mesh.triangle_count))
    gx, gy = p1_gradient(mesh, u).T
    lhs = float(np.sum(mesh.areas * (gx * fx + gy * fy)))
    rhs = float(u @ p1_divergence(mesh, fx, fy))
    bx, by = mesh.basis_columns
    scale = np.sum(mesh.areas * np.abs(u[mesh.triangles.T])
                   * (np.abs(bx * fx) + np.abs(by * fy)))
    assert abs(lhs - rhs) <= ADJOINT_TOL * scale


# ----------------------------------------------------------------------
# PCG: parity with the BLAS-summed loop it replaced
# ----------------------------------------------------------------------


def blas_cg(operator, rhs, linear_tol, preconditioner):
    """Former cg_solve: inner products by ``@``, norms by
    ``np.linalg.norm``."""
    n = len(rhs)
    bnorm = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    r = rhs.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    for matvecs in range(1, 10 * n + 100 + 1):
        assert rz > 0.0
        ap = operator @ p
        pap = float(p @ ap)
        assert pap > 0.0
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        if rnorm <= linear_tol * bnorm:
            return x, matvecs, rnorm / bnorm
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError("iteration cap reached",
                              np.linalg.norm(r) / bnorm)


def dot_norm(a):
    """cg_solve's norm: the square root of a ``_dot``."""
    return math.sqrt(_dot(a, a))


def recording(preconditioner, norm, norms):
    """``preconditioner``, noting the ``norm`` of each residual it is handed:
    the k-th is that of the PCG loop after k products."""
    def apply(r):
        norms.append(norm(r))
        return preconditioner(r)
    return apply


@settings(max_examples=60, deadline=None)
@given(mesh=meshes(), matrix=st.sampled_from(["laplace", "lorentz", "euclid"]),
       vcycle=st.booleans(), linear_tol=st.sampled_from([0.5, 1e-6, 1e-12]),
       seed=st.integers(0, 2**32 - 1))
# a tie at the stopping test against a threaded OpenBLAS 0.3.31
@example(mesh=jittered(build_rectangle(12 * 0.1, 6 * 0.1, 0.1), 1),
         matrix="lorentz", vcycle=False, linear_tol=1e-12, seed=1)
def test_pcg_matches_blas_summed_loop(mesh, matrix, vcycle, linear_tol, seed):
    if matrix == "laplace":
        ev = Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid")
    else:
        ev = Evaluation(mesh, spacelike_field(mesh, seed, 0.9), matrix)
    k = tangent_matrix(mesh, ev)
    assume(k.shape[0] > 0)
    rhs = np.random.default_rng(seed).standard_normal(k.shape[0])
    diag = k.diagonal()
    cycle = _VCycle(k) if vcycle else (lambda r: r / diag)
    # each loop's residual norms, summed as the loop sums them
    norms, norms_ref = [], []
    x, matvecs, achieved = cg_solve(
        k, rhs, linear_tol, recording(cycle, dot_norm, norms))
    x_ref, matvecs_ref, achieved_ref = blas_cg(
        k, rhs, linear_tol, recording(cycle, np.linalg.norm, norms_ref))
    # The loops differ only by rounding in their sums, which finite-precision
    # CG carries forward at about eps * matvecs * |A| |x| / |b| relative to
    # |b| (Greenbaum, SIAM J. Matrix Anal. Appl. 18 (1997) 535-551); the
    # generated systems, up to about 700 unknowns, stayed within 6 times
    # that.  Slowly converging Jacobi systems amplify it far more: on a
    # jittered annulus with 2,211 unknowns and 85 matvecs at 1e-6, exactly
    # rounded sums (math.fsum) and these sums part from the BLAS loop by 3%
    # and 14% in the achieved residual.
    scale = (100.0 * np.finfo(float).eps * max(matvecs, matvecs_ref)
             * abs(scipy_csr(k)).sum(axis=1).max() * np.linalg.norm(x_ref)
             / np.linalg.norm(rhs))
    if matvecs == matvecs_ref:
        assert abs(achieved - achieved_ref) <= scale
        assert np.linalg.norm(x - x_ref) <= scale * np.linalg.norm(x_ref)
        return
    # A tie at the stopping test, which Jacobi PCG at 1e-12 meets in a few
    # percent of the generated systems, where that rounding is a tenth of
    # the tolerance: after the smaller count the two residuals still agree,
    # on either side of the tolerance.  The loop that goes on hands its
    # residual after that count to the preconditioner.
    first = min(matvecs, matvecs_ref)
    got = (achieved if matvecs == first
           else norms[first] / dot_norm(rhs))
    want = (achieved_ref if matvecs_ref == first
            else norms_ref[first] / np.linalg.norm(rhs))
    assert abs(got - want) <= scale
    assert min(got, want) <= linear_tol < max(got, want)


# ----------------------------------------------------------------------
# boundary expressions: parity with the recursive-descent parser
# ----------------------------------------------------------------------

_OLD_TOKEN = re.compile(r"""
    \s*(?:
        (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\*\*|[-+*/^()])
    )
""", re.VERBOSE)


class DescentExpression:
    """The former tokenizer and recursive-descent parser, constants as
    Python floats."""

    def __init__(self, text):
        self.tokens, pos = [], 0
        while pos < len(text):
            m = _OLD_TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if not text[pos:].lstrip():
                    break
                raise ExpressionError(f"unexpected character at {pos}")
            kind = m.lastgroup
            value = float(m.group(kind)) if kind == "num" else m.group(kind)
            self.tokens.append((kind, value))
            pos = m.end()
        self.tokens.append(("end", ""))
        self.pos = 0
        self.fn = self.parse_sum()
        if self.peek()[0] != "end":
            raise ExpressionError("unexpected trailing token")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        env = {"x": x, "y": y, "r": np.hypot(x, y)}
        with np.errstate(all="ignore"):
            out = self.fn(env)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, op):
        if self.next() != ("op", op):
            raise ExpressionError(f"expected {op!r}")

    def parse_sum(self):
        fn = self.parse_product()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            rhs = self.parse_product()
            if op == "+":
                fn = (lambda a, b: lambda env: a(env) + b(env))(fn, rhs)
            else:
                fn = (lambda a, b: lambda env: a(env) - b(env))(fn, rhs)
        return fn

    def parse_product(self):
        fn = self.parse_unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            rhs = self.parse_unary()
            if op == "*":
                fn = (lambda a, b: lambda env: a(env) * b(env))(fn, rhs)
            else:
                fn = (lambda a, b: lambda env: a(env) / b(env))(fn, rhs)
        return fn

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            inner = self.parse_unary()
            return lambda env: -inner(env)
        if self.peek() == ("op", "+"):
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.next()
            expo = self.parse_unary()
            return lambda env: base(env) ** expo(env)
        return base

    def parse_atom(self):
        kind, value = self.next()
        if kind == "num":
            return lambda env: value
        if kind == "name" and value in FUNCTIONS:
            fn = FUNCTIONS[value]
            self.expect("(")
            arg = self.parse_sum()
            self.expect(")")
            return lambda env: fn(arg(env))
        if kind == "name" and value in VARIABLES:
            return lambda env: env[value]
        if (kind, value) == ("op", "("):
            inner = self.parse_sum()
            self.expect(")")
            return inner
        raise ExpressionError(f"unexpected {value!r}")


_WS = st.sampled_from(["", "", " ", "  ", "\t"])
_EXPONENT = st.builds(lambda e, sign, k: f"{e}{sign}{k}",
                      st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                      st.integers(0, 40))
_LITERALS = st.builds(
    lambda mantissa, exponent: mantissa + exponent,
    st.one_of(st.integers(0, 99).map(str),                 # 2
              st.integers(0, 99).map("{}.".format),        # 1.
              st.from_regex(r"\.[0-9]{1,3}", fullmatch=True),  # .5
              st.from_regex(r"[1-9]?[0-9]\.[0-9]{1,3}", fullmatch=True)),
    st.one_of(st.just(""), _EXPONENT))                     # 1e-3, 2E+2


def _spaced(*parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map("".join)


def _extend(inner):
    unary = st.lists(_spaced(st.sampled_from("-+"), _WS), min_size=1,
                     max_size=4).map("".join)
    return st.one_of(
        _spaced(inner, _WS, st.sampled_from(["+", "-", "*", "/", "^", "**"]),
                _WS, inner),
        _spaced(unary, inner),
        _spaced("(", _WS, inner, _WS, ")"),
        _spaced(st.sampled_from(sorted(FUNCTIONS)), _WS, "(", _WS, inner, _WS,
                ")"),
        # a power chain, which binds to the right
        st.lists(inner, min_size=3, max_size=5).map("^".join))


_GRAMMAR = st.recursive(st.one_of(_LITERALS, st.sampled_from(VARIABLES)),
                        _extend, max_leaves=12)
_POINTS = (np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.3, 1.0, 1.5, 4.0]),
           np.array([0.0, 1.0, -0.25, 0.0, 2.0, -3.0, 0.5, 1.5, 0.1]))


@settings(max_examples=400, deadline=None)
@given(text=_spaced(_WS, _GRAMMAR, _WS))
@example(text="2^3^2 - -x^2 * .5e1 / 2E+2 + 1.*y**-r")
@example(text="(-8)^(1/3) + 0*x")
@example(text="0.934^5.357 + 6.571**2.321*x")  # np.power would round these
@example(text="2^2^2^2^2 + 1/0 - 1e400")
def test_expression_matches_recursive_descent(text):
    got = Expression(text)(*_POINTS)  # never raises on the grammar
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = DescentExpression(text)(*_POINTS)
    except (ArithmeticError, TypeError, Warning):
        # the former parser's defects: float overflow, division by zero and
        # complex powers (their real part, or float() of a complex)
        return
    assert np.array_equal(got, want, equal_nan=True), text
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


@pytest.mark.parametrize("text", [
    "x y", "sin x", "x < y", "x if y else 1", "x.real", "1j", "True",
    '__import__("os")', "1_000", "0x10", "ｘ", "sin(", "q*x",
    "sin(x, y)", "sin(x=1)", "", "x +", "x % y", "x // y", "(x", "x)",
    "sin", "ｓin(x)", "lambda: x", "[x]", "x; y",
])
def test_both_parsers_reject(text):
    with pytest.raises(ExpressionError):
        DescentExpression(text)
    with pytest.raises(ExpressionError):
        Expression(text)


# ----------------------------------------------------------------------
# multigrid aggregates and the bottom inverse
# ----------------------------------------------------------------------


def squared_graph_aggregates(a, theta):
    """The aggregates chosen over the squared strength graph s @ s."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    d = a.diagonal()
    strong = np.abs(a.data) >= theta * np.sqrt(d[rows] * d[a.indices])
    rows = rows[strong]
    cols = a.indices[strong]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    s = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    s2 = s @ s
    priority = np.arange(n, dtype=np.int64) * 2654435761 % (1 << 32)
    state = np.zeros(n, dtype=np.int8)
    near, start = s2.indices, s2.indptr[:-1]
    while True:
        open_ = state == 0
        if not open_.any():
            break
        best = np.maximum.reduceat(np.where(open_[near], priority[near], -1),
                                   start)
        root = open_ & (best == priority)
        reached = np.logical_or.reduceat(root[near], start)
        state[root] = 1
        state[open_ & reached & ~root] = -1
    agg = np.full(n, -1, dtype=np.int64)
    roots = np.flatnonzero(state == 1)
    agg[roots] = np.arange(len(roots))
    for _ in range(2):
        link = (agg[rows] < 0) & (agg[cols] >= 0)
        joiner, first = np.unique(rows[link], return_index=True)
        agg[joiner] = agg[cols[link][first]]
    left = np.flatnonzero(agg < 0)
    agg[left] = len(roots) + np.arange(len(left))
    return agg


@st.composite
def strength_matrices(draw):
    """Sparse diagonally dominant SPD matrices, links over three decades.

    With ``asymmetric`` one stored link loses its mirror entry, so the
    strength graph is asymmetric at either theta.
    """
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    links = np.triu(rng.random((n, n)) < draw(st.floats(0.02, 0.4)), 1)
    sign = np.where(rng.random((n, n)) < 0.2, 1.0, -1.0)
    off = links * sign * 10.0 ** rng.uniform(-3.0, 0.0, (n, n))
    off = off + off.T
    a = off + np.diag(np.abs(off).sum(axis=1) + 10.0 ** rng.uniform(-3, 0, n))
    if draw(st.booleans()) and links.any():
        i, j = np.argwhere(links)[draw(st.integers(0, int(links.sum()) - 1))]
        a[i, j] = 0.0
    return csr_matrix(a)


@settings(max_examples=80, deadline=None)
@given(a=strength_matrices(), theta=st.sampled_from([STRENGTH_THETA, 0.0]))
def test_aggregates_match_squared_graph(a, theta):
    np.testing.assert_array_equal(_aggregates(solver_csr(a), theta),
                                  squared_graph_aggregates(a, theta))


def test_aggregates_match_squared_graph_down_a_hierarchy():
    mesh = build_annulus(1.0, 2.0, 0.03)
    k = tangent_matrix(mesh,
                       Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid"))
    cycle = _VCycle(k)
    assert len(cycle.levels) >= 2
    for a, *_ in cycle.levels:
        for theta in (STRENGTH_THETA, 0.0):
            np.testing.assert_array_equal(_aggregates(a, theta),
                                          squared_graph_aggregates(a, theta))


def test_aggregates_with_a_hub_row_match_squared_graph():
    """A wheel: one hub linked to 200 rim rows, each linked to its two
    rim neighbours.  At theta 0 every link is strong, and the hub's 201
    links would make a (width, n) table fifty times the links, so those
    aggregates come from reduceat; at STRENGTH_THETA the hub's links are
    weak and the table is used."""
    rim = 200
    i = np.arange(1, rim + 1)
    rows = np.concatenate([np.zeros(rim, dtype=np.int64), i])
    cols = np.concatenate([i, i % rim + 1])
    off = coo_matrix((-np.ones(2 * rim), (rows, cols)),
                     shape=(rim + 1, rim + 1)).toarray()
    off = off + off.T
    a = csr_matrix(off + np.diag(1.0 - off.sum(axis=1)))
    assert np.diff(a.indptr).max() * a.shape[0] > 2 * a.nnz
    for theta in (STRENGTH_THETA, 0.0):
        np.testing.assert_array_equal(_aggregates(solver_csr(a), theta),
                                      squared_graph_aggregates(a, theta))


def eigenpair_inverse(a):
    """The first former bottom inverse: the pseudo-inverse on the
    eigenvalues above COARSE_RCOND times the largest."""
    lam, q = np.linalg.eigh(a)
    keep = lam > COARSE_RCOND * lam[-1]
    inv = (q[:, keep] / lam[keep]) @ q[:, keep].T
    return 0.5 * (inv + inv.T)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), log_cond=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=300, log_cond=10.0, seed=0)
@example(n=109, log_cond=4.0, seed=1)
def test_dense_inverse_matches_eigenpair_inverse(n, log_cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** -rng.uniform(0.0, log_cond, n)
    lam[[0, -1]] = 1.0, 10.0 ** -log_cond
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    got = _dense_inverse(a)
    want = eigenpair_inverse(a)
    np.testing.assert_array_equal(got, got.T)
    rtol = 1e-9 + 1e-15 * 10.0 ** log_cond
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), data=st.data(), seed=st.integers(0, 2**32 - 1))
@example(n=1, data=None, seed=0)
def test_dense_inverse_of_singular_matrix(n, data, seed):
    rng = np.random.default_rng(seed)
    rank = 0 if data is None else data.draw(st.integers(0, n - 1))
    g = rng.standard_normal((n, rank))
    g[rng.random(n) < 0.1] = 0.0  # rows and columns of zeros
    a = g @ g.T
    b = _dense_inverse(a)
    np.testing.assert_array_equal(b, b.T)
    lam = np.linalg.eigvalsh(b)
    assert lam.min() >= -1e-12 * max(lam.max(), 1.0)
    scale = max(np.abs(a).max(), 1.0)
    assert np.abs(a @ b @ a - a).max() <= 1e-10 * scale


def former_bottom_inverse(a):
    """The second former bottom inverse: pivoted left-looking LDL^T
    elimination, then the Takahashi recurrence Z = D^-1 L^-1 + (I - L^T) Z
    (Takahashi, Fagan & Chen, 8th PICA Conference, 1973)."""
    n = a.shape[0]
    perm = np.arange(n)
    lower = np.zeros((n, n))
    d = np.zeros(n)
    schur = a.diagonal().copy()
    tol = COARSE_RCOND * float(schur.max())
    rank = n
    for j in range(n):
        p = j + int(np.argmax(schur[j:]))
        if not schur[p] > tol:
            rank = j
            break
        if p != j:
            perm[[j, p]] = perm[[p, j]]
            schur[[j, p]] = schur[[p, j]]
            lower[[j, p], :j] = lower[[p, j], :j]
        pivot = d[j] = schur[j]
        col = a[perm[j], perm[j + 1:]] - np.einsum(
            "ij,j->i", lower[j + 1:, :j], d[:j] * lower[j, :j])
        col /= pivot
        lower[j + 1:, j] = col
        schur[j + 1:] -= pivot * col * col
    z = np.zeros((n, n))
    for j in range(rank - 1, -1, -1):
        col = lower[j + 1:rank, j]
        row = -np.einsum("i,ij->j", col, z[j + 1:rank, j + 1:rank])
        z[j, j + 1:rank] = row
        z[j + 1:rank, j] = row
        z[j, j] = 1.0 / d[j] - np.einsum("i,i->", row, col)
    back = np.argsort(perm)
    return z[np.ix_(back, back)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), log_cond=st.floats(0.0, 10.0),
       singular=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
@example(n=300, log_cond=10.0, singular=False, data=None, seed=0)
@example(n=40, log_cond=0.0, singular=True, data=None, seed=0)
def test_dense_inverse_matches_former_bottom_inverse(n, log_cond, singular,
                                                     data, seed):
    rng = np.random.default_rng(seed)
    if singular:
        rank = 0 if data is None else data.draw(st.integers(0, n - 1))
        g = rng.standard_normal((n, rank))
        g[rng.random(n) < 0.1] = 0.0  # rows and columns of zeros
        a = g @ g.T
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 10.0 ** -rng.uniform(0.0, log_cond, n)
        lam[[0, -1]] = 1.0, 10.0 ** -log_cond
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
    got = _dense_inverse(a)
    want = former_bottom_inverse(a)
    kept = want.diagonal() != 0.0
    np.testing.assert_array_equal(got.diagonal() != 0.0, kept)
    if not kept.any():
        np.testing.assert_array_equal(got, 0.0)
        return
    cond = np.linalg.cond(a[np.ix_(kept, kept)])
    rtol = 1e-9 + 1e-15 * cond
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def assert_symmetric_inverse_of_asymmetric(a):
    assert not np.array_equal(a, a.T)  # symmetric only to rounding
    b = _dense_inverse(a)
    np.testing.assert_array_equal(b, b.T)


def test_dense_inverse_is_symmetric_on_a_galerkin_bottom():
    mesh = build_annulus(1.0, 4.0, 0.025)
    k = tangent_matrix(mesh,
                       Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid"))
    a, _, p = _VCycle(k).levels[-1]
    assert_symmetric_inverse_of_asymmetric((p.T.tocsr() @ (a @ p)).toarray())


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 120), seed=st.integers(0, 2**32 - 1))
def test_dense_inverse_is_symmetric_with_one_triangle_an_ulp_off(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    a[upper] = np.nextafter(a[upper], np.inf)
    assert_symmetric_inverse_of_asymmetric(a)


# ----------------------------------------------------------------------
# CSR matrices on scipy's compiled kernels: parity with scipy.sparse
# ----------------------------------------------------------------------


@st.composite
def csr_parts(draw, m=None, n=None):
    """(data, indices, indptr, shape) of an m x n CSR matrix.

    Columns come in any order within a row, some rows are empty, and with
    ``repeats`` a row may hold a column twice.  Small integers make exact
    sums, so products and differences can cancel to zero; signed zeros
    are among the values.  The index arrays are int32 or int64.
    """
    m = draw(st.integers(0, 7)) if m is None else m
    n = draw(st.integers(0, 7)) if n is None else n
    unique = not draw(st.booleans())
    rows = [draw(st.lists(st.integers(0, n - 1), unique=unique,
                          max_size=n + 1)) if n else [] for _ in range(m)]
    index = draw(st.sampled_from([np.int32, np.int64]))
    indices = np.array([c for row in rows for c in row], dtype=index)
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows],
                                            dtype=index)]).astype(index)
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5]) | \
        st.floats(-1e3, 1e3)
    data = np.array(draw(st.lists(values, min_size=len(indices),
                                  max_size=len(indices))), dtype=float)
    return data, indices, indptr, (m, n)


def both(parts):
    """The solver's CSR matrix and scipy's of the same arrays."""
    data, indices, indptr, shape = parts
    return (_csr(data, indices, indptr, shape),
            csr_matrix((data, indices, indptr), shape=shape))


def assert_same_csr(got, want):
    assert isinstance(got, _CSR)
    assert got.shape == want.shape
    assert got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name  # signed zeros included


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def vector(draw, n):
    return np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                  max_size=n)), dtype=float)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_csr_operations_match_scipy_sparse(data):
    parts = data.draw(csr_parts())
    m, n = parts[3]
    a, a_ref = both(parts)
    assert_same_csr(a, a_ref)
    x, y = vector(data.draw, n), vector(data.draw, m)
    assert_same_array(a @ x, a_ref @ x)
    assert_same_array(a.T @ y, a_ref.T @ y)
    assert_same_csr(a.T.tocsr(), a_ref.T.tocsr())
    b, b_ref = both(data.draw(csr_parts(m=n)))
    assert_same_csr(a @ b, a_ref @ b_ref)
    c, c_ref = both(data.draw(csr_parts(m=m, n=n)))
    assert_same_csr(a - c, a_ref - c_ref)
    assert_same_csr(a - a, a_ref - a_ref)
    assert_same_array(a.diagonal(), a_ref.diagonal())
    assert_same_array(a.toarray(), a_ref.toarray())


def test_csr_cancellations_match_scipy_sparse():
    # [[1, 1], [2, 0]] @ [[1, 1], [-1, 1]]: maxnnz 4, one product cancels;
    # the first row's columns are stored unsorted
    a, a_ref = both((np.array([1.0, 1.0, 2.0]), np.array([1, 0, 0]),
                     np.array([0, 2, 3]), (2, 2)))
    b, b_ref = both((np.array([1.0, 1.0, -1.0, 1.0]), np.array([0, 1, 0, 1]),
                     np.array([0, 2, 4]), (2, 2)))
    product = a @ b
    assert product.nnz == 3
    assert_same_csr(product, a_ref @ b_ref)
    # a product with no nonzero at all: maxnnz 1, nnz 0
    r, r_ref = both((np.array([1.0, 1.0]), np.array([0, 1]), np.array([0, 2]),
                     (1, 2)))
    col, col_ref = both((np.array([1.0, -1.0]), np.array([0, 0]),
                         np.array([0, 1, 2]), (2, 1)))
    assert (r @ col).nnz == 0
    assert_same_csr(r @ col, r_ref @ col_ref)
    # a difference that cancels to zero: maxnnz 6, nnz 0
    assert (b - b).nnz == 0
    assert_same_csr(b - b, b_ref - b_ref)
    # a difference that keeps less than half of maxnnz is trimmed by a copy
    half = b - _csr(np.array([1.0, 1.0, -1.0]), np.array([0, 1, 0]),
                    np.array([0, 2, 3]), (2, 2))
    assert half.nnz == 1 and half.data.base is None
    assert_same_csr(half, b_ref - csr_matrix(
        (np.array([1.0, 1.0, -1.0]), np.array([0, 1, 0]), np.array([0, 2, 3])),
        shape=(2, 2)))


INDEX_DTYPES = [np.bool_, np.int8, np.uint16, np.int32, np.uint32, np.int64,
                np.uint64, np.float64]


@settings(max_examples=300, deadline=None)
@given(arrays=st.lists(hnp.arrays(st.sampled_from(INDEX_DTYPES),
                                  st.integers(0, 4)), max_size=3),
       maxval=st.none() | st.integers(0, 2**40),
       contents=st.booleans())
def test_index_dtype_matches_scipy(arrays, maxval, contents):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # nan contents
        assert _index_dtype(arrays, maxval, contents) == get_index_dtype(
            arrays, maxval, contents)


def scipy_matrices(data, indices, indptr, shape):
    """``_csr`` as it was: scipy's csr_matrix of the arrays."""
    return csr_matrix((data, indices, indptr), shape=shape)


@settings(max_examples=30, deadline=None)
@given(mesh=meshes(), matrix=st.sampled_from(["laplace", "lorentz", "euclid"]),
       coarse_size=st.sampled_from([8, 40]), seed=st.integers(0, 2**32 - 1))
def test_vcycle_matches_one_built_through_scipy_sparse(mesh, matrix,
                                                       coarse_size, seed):
    if matrix == "laplace":
        ev = Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid")
    else:
        ev = Evaluation(mesh, spacelike_field(mesh, seed, 0.9), matrix)
    k = tangent_matrix(mesh, ev)
    assume(k.shape[0] > 0)
    # small bottoms give several levels, and a dense or a Jacobi bottom
    with mock.patch.object(solver_module, "COARSE_SIZE", coarse_size):
        cycle = _VCycle(k)
        with mock.patch.object(solver_module, "_csr", scipy_matrices):
            ref = _VCycle(scipy_csr(k))
    assert len(cycle.tentatives) == len(ref.tentatives)
    for t, t_ref in zip(cycle.tentatives, ref.tentatives):
        assert_same_csr(t, t_ref)
    assert len(cycle.levels) == len(ref.levels)
    for (a, scale, p), (a_ref, scale_ref, p_ref) in zip(cycle.levels,
                                                        ref.levels):
        assert_same_csr(a, a_ref)
        assert_same_array(scale, scale_ref)
        assert_same_csr(p, p_ref)
    if isinstance(ref.bottom, np.ndarray):
        assert_same_array(cycle.bottom, ref.bottom)
    else:
        assert_same_csr(cycle.bottom, ref.bottom)
    r = np.random.default_rng(seed).standard_normal(k.shape[0])
    assert_same_array(cycle(r), ref(r))


# ----------------------------------------------------------------------
# blocked triangle kernels: parity with the whole-array kernels
# ----------------------------------------------------------------------


def block_sizes(count):
    """Block sizes giving one block with rows to spare, exactly one block,
    a last block cut short, and many short blocks."""
    return sorted({count + 7, count, max(1, count - 1), 1 + count // 3, 7})


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=40, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_blocked_solver_kernels_match_whole_array_bincount(mesh, metric, seed,
                                                           steepest):
    v = spacelike_field(mesh, seed, steepest) + 3.0
    fx, fy = np.random.default_rng(seed).standard_normal(
        (2, mesh.triangle_count))
    zero = Evaluation(mesh, np.zeros(mesh.vertex_count), "euclid")
    ev = Evaluation(mesh, v, metric)
    refs = (whole_array_gradient(mesh, v),
            whole_array_p1_divergence(mesh, fx, fy),
            whole_array_residual(mesh, ev),
            whole_array_tangent_data(mesh, ev),
            whole_array_tangent_data(mesh, zero))
    for block in block_sizes(mesh.triangle_count):
        with mock.patch.object(mesh_module, "TRIANGLE_BLOCK", block):
            got = (p1_gradient(mesh, v), p1_divergence(mesh, fx, fy),
                   residual(mesh, Evaluation(mesh, v, metric)),
                   tangent_matrix(mesh, ev).data,
                   tangent_matrix(mesh, None).data)
        for g, r in zip(got, refs, strict=True):
            same_bits(g, r)


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       mesh=st.one_of(scan_annuli(), relabelled(scan_annuli())),
       subset=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_polyline_pieces_match_whole_array_bands(data, mesh, subset,
                                                         seed):
    radii = data.draw(scan_radii(mesh))
    triangles = None
    if subset:
        rng = np.random.default_rng(seed)
        triangles = rng.choice(mesh.triangle_count,
                               size=rng.integers(0, mesh.triangle_count),
                               replace=False)
    ref = whole_array_polyline_pieces(mesh, radii, triangles)
    count = mesh.triangle_count if triangles is None else len(triangles)
    for block in block_sizes(count):
        with mock.patch.object(mesh_module, "TRIANGLE_BLOCK", block):
            got = polyline_pieces(mesh, radii, triangles)
        for g, r in zip(got, ref, strict=True):
            same_bits(g, r)


@pytest.mark.parametrize("make", [
    # 8,192 triangles: exactly one block of the default size
    lambda: build_rectangle(1.0, 1.0, 1.0 / 64),
    # 10,040 triangles: one full block and a short one
    lambda: build_annulus(1.0, 2.0, 0.05, artificial_rings=["outer"]),
])
def test_default_blocks_match_whole_array_kernels(make):
    mesh = make()
    assert mesh.triangles.dtype == np.int32
    v = spacelike_field(mesh, 3, 0.9)
    ev = Evaluation(mesh, v, "lorentz")
    same_bits(p1_gradient(mesh, v), whole_array_gradient(mesh, v))
    same_bits(p1_divergence(mesh, ev.gx, ev.gy),
              whole_array_p1_divergence(mesh, ev.gx, ev.gy))
    same_bits(residual(mesh, ev), whole_array_residual(mesh, ev))
    same_bits(tangent_matrix(mesh, ev).data,
              whole_array_tangent_data(mesh, ev))
    radii = np.linspace(0.5, 1.9, 7)
    for g, r in zip(polyline_pieces(mesh, radii),
                    whole_array_polyline_pieces(mesh, radii), strict=True):
        same_bits(g, r)
