"""Parity of the array-at-a-time layers with the loops they replaced.

The reference routines below are the former per-triangle, per-chunk and
per-line implementations, kept here verbatim in substance.  The potential
must match its reference's breadth-first tree exactly and its values to
1e-12 of the field's size (the increments are now summed by numpy instead
of ``@``); the text I/O must match byte for byte and bit for bit; the
mesh generators and the edge table must match bit for bit; the tangent
matrix must keep its sparsity pattern exactly and its entries to 1e-14 of
the largest (they are now summed per edge by ``bincount``, with each
diagonal entry minus its row's off-diagonal sum), also for fields within
0.05 of the light cone.  The flux scan's exact circle arcs replaced
inscribed polygons clipped with a k-d tree; they must match that scan
within its chord error (``assert_scan_matches_polygon``).
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsurf import (Mesh, SolverConfig, TopologyError, build_annulus,
                     build_rectangle, conjugate_pair_coeffs, flux_form,
                     integrate_potential, load_mesh, p1_gradient,
                     polyline_pieces, save_mesh, solve, tangent_matrix)
from maxsurf.mesh import _edge_connected
from maxsurf.forms import _bfs_tree, _check_form, max_interior_circulation
from maxsurf.uniqueness import _circle_sums
from maxsurf.records import ROW_BLOCK, fmt, read_csv, write_csv
from maxsurf.solver import SIGMA_MIN
from scipy.sparse import coo_matrix

from conftest import jittered, spacelike_field

# the former polyline clipper's tolerances
BARY_TOL = 1e-9
PARAM_MERGE_TOL = 1e-12

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


def polygon_scan(mesh, alpha, shifted, radii, triangles):
    """The flux scan's line sums as the inscribed-polygon scan took them.

    Each circle is its inscribed polygon with segments of at most h/2,
    clipped to the triangles one segment at a time with a k-d tree over
    the centroids (the former scan cut segments into chunks of at most h,
    which leaves these segments whole).  Returns (length, eta, sq_line,
    level_flux, level_scale) per radius: the field is taken at piece
    midpoints, and level_scale sums (|field| + r |grad field|) |alpha|
    over the pieces, the size against which level_flux is compared.
    """
    from scipy.spatial import cKDTree

    off = mesh.vertices[mesh.triangles] - mesh.centroids[:, None, :]
    locator = (cKDTree(mesh.centroids),
               float(np.sqrt((off ** 2).sum(axis=2).max())))
    mask = np.zeros(mesh.triangle_count, dtype=bool)
    mask[triangles] = True
    grad = p1_gradient(mesh, shifted)
    out = np.zeros((5, len(radii)))
    for k, r in enumerate(radii):
        loop = circle_polyline(r, 0.5 * mesh.h)
        for p, q in zip(loop[:-1], loop[1:]):
            for tri, piece, mid in segment_pieces(mesh, locator, p, q):
                if not mask[tri]:
                    continue
                size = float(np.hypot(*piece))
                norm = float(np.hypot(*alpha[tri]))
                corners = mesh.triangles[tri]
                lam = barycentric(mesh.vertices[corners][None], mid)[0]
                val = float(lam @ shifted[corners])
                out[:, k] += [size, norm * size, norm * norm * size,
                              val * float(alpha[tri] @ piece),
                              (abs(val) + r * float(np.hypot(*grad[tri])))
                              * norm * size]
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


# ----------------------------------------------------------------------
# generated annuli, relabelled meshes and scan data
# ----------------------------------------------------------------------


@st.composite
def annuli(draw):
    """Structured annulus, optionally with interior vertices jittered."""
    r_inner = draw(st.sampled_from([0.5, 1.0, 1.5]))
    h = draw(st.sampled_from([0.1, 0.25, 0.5]))
    n_r = draw(st.integers(1, 6))
    n_theta = draw(st.one_of(st.none(), st.integers(3, 40)))
    mesh = build_annulus(r_inner, r_inner + n_r * h, h, n_theta=n_theta)
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
    gradients differ by 0.2 to 0.4, and a level offset.

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
    return v, vp, draw(st.floats(-0.5, 0.5))


@st.composite
def scan_radii(draw, mesh):
    rad = np.hypot(*mesh.vertices.T)
    r_in, r_out = float(rad.min()), float(rad.max())
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return np.unique(r_in + np.asarray(fracs) * (r_out - r_in))


def assert_scan_matches_polygon(mesh, v, vp, level, radii, triangles):
    """The exact arcs agree with the polygon scan within its chord error.

    The polygon with segments of length seg = 2 r sin(pi/n) <= h/2 is
    shorter than its circle by (seg/r)^2/24; twice that bounds length, eta
    and sq_line, and (seg/r)^2/8 of level_scale bounds level_flux.  Each
    edge that can put the polygon and the circle on different sides
    (``unsettled_edges``) may add up to one segment length times the
    largest weight.
    """
    alpha = flux_form(mesh, v) - flux_form(mesh, vp)
    shifted = v - vp - level
    got = _circle_sums(mesh, alpha, shifted, radii, triangles)
    ref = polygon_scan(mesh, alpha, shifted, radii, triangles)
    norm = float(np.linalg.norm(alpha[triangles], axis=1).max(initial=0.0))
    weights = [1.0, norm, norm * norm,
               norm * float(np.abs(shifted).max())]
    for k, r in enumerate(radii):
        n = max(8, int(math.ceil(2.0 * math.pi * r / (0.5 * mesh.h))))
        seg = 2.0 * r * math.sin(math.pi / n)
        edges = unsettled_edges(mesh, triangles, r * math.cos(math.pi / n), r)
        for i, name in enumerate(["length", "eta", "sq_line", "level_flux"]):
            rel, size = ((seg / r) ** 2 / 12.0, ref[i, k]) if i < 3 else \
                ((seg / r) ** 2 / 8.0, ref[4, k])
            tol = rel * abs(size) + edges * seg * weights[i]
            assert abs(got[i][k] - ref[i, k]) <= tol, (name, r, edges)


# ----------------------------------------------------------------------
# circle scan, generators and edge table: parity
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(data=st.data(), mesh=st.one_of(scan_annuli(), relabelled(scan_annuli())))
def test_circle_pieces_match_loop(data, mesh):
    v, vp, level = data.draw(scan_fields(mesh))
    assert_scan_matches_polygon(mesh, v, vp, level, data.draw(scan_radii(mesh)),
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
    v, vp, level = data.draw(scan_fields(mesh))
    assert_scan_matches_polygon(mesh, v, vp, level, data.draw(scan_radii(mesh)),
                                tris)


def test_scan_circle_pieces_match_loop():
    # the separation experiment's shape: a region beyond r = 2 on the
    # annulus 1 < r < 4, circles well inside it
    mesh = build_annulus(1.0, 4.0, 0.05, artificial_rings=("outer",))
    tris = np.flatnonzero(np.linalg.norm(mesh.centroids, axis=1) > 2.0)
    x, y = mesh.vertices.T
    r = np.hypot(x, y)
    v = 0.3 * x + 0.02 * np.log(r)
    vp = -0.1 * y - 0.03 * np.log(r)
    assert_scan_matches_polygon(mesh, v, vp, 0.1, np.array([2.2, 3.1, 3.9]),
                                tris)


def test_polyline_pieces_rejects_bad_radii(square4):
    for bad in ([0.5, np.nan], [[0.5]], [0.5, 0.5], [-0.5, 0.5], [0.0]):
        with pytest.raises(ValueError, match="radii"):
            polyline_pieces(square4, bad)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 20), ny=st.integers(1, 20),
       h=st.sampled_from([0.05, 0.1, 0.25, 1.0]))
def test_rectangle_triangles_match_loop(nx, ny, h):
    mesh = build_rectangle(nx * h, ny * h, h)
    np.testing.assert_array_equal(mesh.triangles,
                                  loop_rectangle_triangles(nx, ny))


@settings(max_examples=60, deadline=None)
@given(n_r=st.integers(1, 12), n_theta=st.integers(3, 60),
       r_inner=st.sampled_from([0.25, 1.0, 2.0]))
def test_annulus_triangles_match_loop(n_r, n_theta, r_inner):
    mesh = build_annulus(r_inner, r_inner + n_r * 0.1, 0.1, n_theta=n_theta)
    np.testing.assert_array_equal(mesh.triangles,
                                  loop_annulus_triangles(n_r, n_theta))


@settings(max_examples=60, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())))
def test_edge_data_matches_sorted_rows(mesh):
    ref = sorted_rows_edge_data(mesh.triangles)
    got = (mesh.edges, mesh.edge_counts, mesh.triangle_edges, mesh.neighbors)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)
        assert g.shape == r.shape


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_edge_connected_matches_csgraph(sizes, seed):
    """Blocks of grid triangles, some glued along a shared edge, some not."""
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
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
    t = t[rng.permutation(len(t))]
    _, counts, _, nbrs = sorted_rows_edge_data(t)
    assert counts.max() <= 2
    src = np.repeat(np.arange(len(t)), 3)[nbrs.ravel() >= 0]
    graph = coo_matrix((np.ones(len(src)), (src, nbrs.ravel()[nbrs.ravel() >= 0])),
                       shape=(len(t), len(t)))
    pieces = connected_components(graph, directed=False, return_labels=False)
    assert _edge_connected(nbrs) == (pieces == 1)


# ----------------------------------------------------------------------
# tangent assembly: parity
# ----------------------------------------------------------------------


def coo_tangent(mesh, values, config, full=False):
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
    basis = mesh.basis_gradients
    local = np.einsum("tid,tde,tje->tij", basis, dmat, basis)
    local *= mesh.areas[:, None, None]
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.vertex_count
    k = coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    if full:
        return k
    free = mesh.interior_vertices
    return k[free][:, free]


@settings(max_examples=80, deadline=None)
@given(mesh=st.one_of(meshes(), relabelled(meshes())),
       metric=st.sampled_from(["lorentz", "euclid"]), full=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       steepest=st.one_of(st.just(0.5), st.floats(0.95, 0.999)))
def test_tangent_refill_matches_coo(mesh, metric, full, seed, steepest):
    config = SolverConfig(metric=metric)
    v = spacelike_field(mesh, seed, steepest)
    got = tangent_matrix(mesh, v, config, full=full)
    ref = coo_tangent(mesh, v, config, full=full)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    scale = float(np.abs(ref.data).max(initial=0.0))
    np.testing.assert_allclose(got.data, ref.data, rtol=1e-14,
                               atol=1e-14 * scale)
