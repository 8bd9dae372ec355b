"""Piecewise-constant 1-forms on triangulations.

A form is a (T, 2) array of coefficients (p, q), meaning p dx + q dy on
each triangle.  The module provides the conserved-flux form of a spacelike
field, circulation around vertices (the discrete closedness test), exact
line integrals along polylines, area integrals, and integration of a
closed form to a vertex potential.
"""

from __future__ import annotations

import math

import numpy as np

from .lorentz import flux_coeffs
from .mesh import Mesh
from .records import write_csv, read_csv
from .solver import p1_gradient

BARY_TOL = 1e-9
PARAM_MERGE_TOL = 1e-12

FORM_HEADER = "triangle,p,q"
POLYLINE_HEADER = "x,y"


class TopologyError(ValueError):
    """The mesh topology does not admit the requested operation."""


class ClosednessError(ValueError):
    """A form fails the circulation test for closedness."""


def _check_form(mesh: Mesh, form) -> np.ndarray:
    form = np.asarray(form, dtype=float)
    if form.shape != (mesh.triangle_count, 2):
        raise ValueError("form shape does not match the mesh")
    return form


def flux_form(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Conserved-flux form of a spacelike vertex field.

    Coefficients per triangle: (-g_y/w) dx + (g_x/w) dy with g the P1
    gradient and w = sqrt(1 - |g|^2).  Closed exactly when the field
    solves the discrete maximal surface equation.
    """
    return flux_coeffs(p1_gradient(mesh, values))


# ----------------------------------------------------------------------
# circulation
# ----------------------------------------------------------------------


def circulations(mesh: Mesh, form) -> np.ndarray:
    """Circulation around every vertex's midpoint loop, (V,) array.

    The loop passes through the midpoints of the edges incident to the
    vertex; inside each incident triangle the path contributes the form
    dotted with half the opposite-edge vector.  Only interior entries are
    geometrically meaningful loops; boundary entries are partial fans.
    """
    form = _check_form(mesh, form)
    t = mesh.triangles
    pts = mesh.vertices
    out = np.zeros(mesh.vertex_count)
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        delta = 0.5 * (pts[t[:, k]] - pts[t[:, j]])
        np.add.at(out, t[:, i], np.sum(form * delta, axis=1))
    return out


def vertex_circulation(mesh: Mesh, form, vertex: int) -> float:
    """Circulation of the form around one interior vertex.

    For the flux form of a discrete solution this equals minus the FEM
    residual at the vertex, so closedness and solver convergence are the
    same measurement.
    """
    from .mesh import INTERIOR

    if mesh.vertex_class[vertex] != INTERIOR:
        raise ValueError(f"vertex {vertex} is not interior")
    form = _check_form(mesh, form)
    total = 0.0
    pts = mesh.vertices
    for tri in mesh.vertex_triangles[vertex]:
        corners = mesh.triangles[tri]
        i = int(np.where(corners == vertex)[0][0])
        j = corners[(i + 1) % 3]
        k = corners[(i + 2) % 3]
        total += float(form[tri] @ (0.5 * (pts[k] - pts[j])))
    return total


def max_interior_circulation(mesh: Mesh, form) -> float:
    c = circulations(mesh, form)
    interior = mesh.interior_vertices
    if len(interior) == 0:
        return 0.0
    return float(np.abs(c[interior]).max())


# ----------------------------------------------------------------------
# polyline decomposition and line integrals
# ----------------------------------------------------------------------


def polyline_pieces(mesh: Mesh, points, clip: bool = False, triangles=None):
    """Split a polyline at triangle boundaries.

    Every returned piece lies inside a single triangle, so integrals of
    piecewise-constant forms over the pieces are exact.  ``triangles``
    restricts ownership to a subset (requires ``clip``); with ``clip`` the
    pieces outside the mesh or the subset are dropped, otherwise leaving
    the mesh is an error.

    Returns (tri, delta, mid): piece owner indices (K,), piece vectors
    (K, 2), and piece midpoints (K, 2).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("polyline must be (N, 2)")
    mask = None
    if triangles is not None:
        if not clip:
            raise ValueError("a triangle subset requires clip=True")
        mask = np.zeros(mesh.triangle_count, dtype=bool)
        mask[np.asarray(triangles, dtype=np.int64)] = True
    out_tri: list[int] = []
    out_delta: list[np.ndarray] = []
    out_mid: list[np.ndarray] = []
    chunk_len = max(mesh.h, 1e-12)
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        seg_len = float(np.hypot(*seg))
        if seg_len < 1e-15:
            continue
        nchunk = max(1, int(math.ceil(seg_len / chunk_len)))
        cuts = np.linspace(0.0, 1.0, nchunk + 1)
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            p = a + c0 * seg
            q = a + c1 * seg
            _chunk_pieces(mesh, p, q, mask, clip, out_tri, out_delta, out_mid)
    if not out_tri:
        return (np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty((0, 2)))
    return (np.asarray(out_tri, dtype=np.int64),
            np.asarray(out_delta), np.asarray(out_mid))


def _chunk_pieces(mesh, p, q, mask, clip, out_tri, out_delta, out_mid):
    d = q - p
    cands = mesh.candidates_near(0.5 * (p + q), extra=0.5 * float(np.hypot(*d)))
    ts = [0.0, 1.0]
    if len(cands):
        corners = mesh.vertices[mesh.triangles[cands]]  # (C, 3, 2)
        for i in range(3):
            a_pts = corners[:, i]
            e = corners[:, (i + 1) % 3] - a_pts
            denom = d[0] * e[:, 1] - d[1] * e[:, 0]
            ok = np.abs(denom) > 1e-15
            if not np.any(ok):
                continue
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
        tri = _locate_among(mesh, cands, mid)
        if tri is None:
            if clip:
                continue
            raise ValueError(f"polyline leaves the mesh near {mid}")
        if mask is not None and not mask[tri]:
            continue
        out_tri.append(tri)
        out_delta.append((t1 - t0) * d)
        out_mid.append(mid)


def _locate_among(mesh, cands, point):
    if len(cands) == 0:
        return None
    bary = mesh.barycentric(cands, point)
    hits = np.where(bary.min(axis=1) >= -BARY_TOL)[0]
    if len(hits) == 0:
        return None
    return int(cands[hits[0]])


def line_integral(mesh: Mesh, form, points) -> float:
    """Exact integral of the form along a polyline inside the mesh."""
    form = _check_form(mesh, form)
    tri, delta, _ = polyline_pieces(mesh, points)
    return float(np.sum(form[tri] * delta))


def weighted_line_integral(mesh: Mesh, scalar, form, points,
                           clip: bool = False, triangles=None) -> float:
    """Integral of (scalar * form) along a polyline, midpoint rule per piece.

    Exact when the scalar is the P1 interpolant (linear on each triangle)
    and the form is piecewise constant.
    """
    from .solver import _check_field

    scalar = _check_field(mesh, scalar)
    form = _check_form(mesh, form)
    tri, delta, mid = polyline_pieces(mesh, points, clip=clip, triangles=triangles)
    if len(tri) == 0:
        return 0.0
    vals = _interp_at(mesh, scalar, tri, mid)
    return float(np.sum(vals * np.sum(form[tri] * delta, axis=1)))


def _interp_at(mesh, scalar, tri, points):
    corners = mesh.triangles[tri]
    p = mesh.vertices[corners]
    d = points - p[:, 0]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    vals = scalar[corners]
    return vals[:, 0] * (1 - l1 - l2) + vals[:, 1] * l1 + vals[:, 2] * l2


def norm_line_integral(mesh: Mesh, form, points,
                       clip: bool = False, triangles=None) -> float:
    """Integral of |(p, q)| (Euclidean coefficient norm) by arclength."""
    form = _check_form(mesh, form)
    tri, delta, _ = polyline_pieces(mesh, points, clip=clip, triangles=triangles)
    if len(tri) == 0:
        return 0.0
    lengths = np.linalg.norm(delta, axis=1)
    return float(np.sum(np.linalg.norm(form[tri], axis=1) * lengths))


def circle_polyline(radius: float, seg_len: float) -> np.ndarray:
    """Closed inscribed polygon approximating an origin-centered circle.

    Segment length stays at or below ``seg_len``; the last point repeats
    the first bitwise so the loop closes exactly.
    """
    if radius <= 0 or seg_len <= 0:
        raise ValueError("radius and seg_len must be positive")
    n = max(8, int(math.ceil(2.0 * math.pi * radius / seg_len)))
    ang = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    return np.vstack([pts, pts[:1]])


# ----------------------------------------------------------------------
# area integrals
# ----------------------------------------------------------------------


def norm_sq_area_integral(mesh: Mesh, form, triangles=None) -> float:
    """Integral of p^2 + q^2 over a triangle subset (default: all)."""
    form = _check_form(mesh, form)
    dens = np.sum(form * form, axis=1)
    if triangles is None:
        return float(np.dot(mesh.areas, dens))
    idx = np.asarray(triangles, dtype=np.int64)
    return float(np.dot(mesh.areas[idx], dens[idx]))


def wedge_integral(mesh: Mesh, scalar, form, triangles=None) -> float:
    """Integral of d(scalar) wedge form: sum_T area_T (v_x q - v_y p)."""
    from .solver import _check_field

    scalar = _check_field(mesh, scalar)
    form = _check_form(mesh, form)
    g = p1_gradient(mesh, scalar)
    dens = g[:, 0] * form[:, 1] - g[:, 1] * form[:, 0]
    if triangles is None:
        return float(np.dot(mesh.areas, dens))
    idx = np.asarray(triangles, dtype=np.int64)
    return float(np.dot(mesh.areas[idx], dens[idx]))


def subset_boundary_integral(mesh: Mesh, scalar, form, triangles) -> float:
    """Integral of (scalar * form) along the boundary of a triangle subset.

    Each boundary edge is traversed in its owner triangle's orientation and
    integrated with the owner's coefficients and the edge-midpoint scalar
    value, which is exact for P1 scalars.  Together with wedge_integral
    this realizes the discrete Stokes identity up to circulation defects.
    """
    from .solver import _check_field

    scalar = _check_field(mesh, scalar)
    form = _check_form(mesh, form)
    idx = np.asarray(triangles, dtype=np.int64)
    mask = np.zeros(mesh.triangle_count, dtype=bool)
    mask[idx] = True
    nbrs = mesh.neighbors
    total = 0.0
    pts = mesh.vertices
    for t in idx:
        corners = mesh.triangles[t]
        for slot in range(3):
            nb = nbrs[t, slot]
            if nb >= 0 and mask[nb]:
                continue
            a = corners[(slot + 1) % 3]
            b = corners[(slot + 2) % 3]
            midval = 0.5 * (scalar[a] + scalar[b])
            total += midval * float(form[t] @ (pts[b] - pts[a]))
    return total


# ----------------------------------------------------------------------
# potential integration
# ----------------------------------------------------------------------


def _bfs_tree(mesh: Mesh):
    """Breadth-first order and predecessors of the triangle adjacency graph.

    Rooted at triangle 0, first in first out, each triangle's neighbors
    taken in ascending index order.  Predecessors of the root and of
    unreached triangles are negative.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    nbrs = np.sort(mesh.neighbors, axis=1)  # boundary slots (-1) first
    keep = nbrs >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    n = mesh.triangle_count
    graph = csr_matrix((np.ones(int(indptr[-1])), nbrs[keep], indptr),
                       shape=(n, n))
    return breadth_first_order(graph, 0, directed=True,
                               return_predecessors=True)


def integrate_potential(mesh: Mesh, form, closedness_tol: float = 1e-9) -> np.ndarray:
    """Vertex potential u with du approximating the given closed form.

    Requires a simply connected mesh (Euler characteristic 1) and max
    interior circulation at or below ``closedness_tol``.  The potential is
    built by breadth-first traversal of the triangle adjacency tree rooted
    at triangle 0, integrating the form exactly along centroid-to-centroid
    paths through shared-edge midpoints.  Vertex values average the
    per-incident-triangle extrapolations; boundary vertices are then
    re-derived from their interior neighbors by exact edge integration,
    which keeps the reconstruction second order where one-sided fans would
    otherwise degrade it.  Normalized to u[0] = 0; deterministic for a
    fixed mesh; path independent up to closedness_tol times path length.
    """
    form = _check_form(mesh, form)
    if mesh.euler_characteristic != 1:
        raise TopologyError(
            f"potential needs a simply connected mesh "
            f"(Euler characteristic {mesh.euler_characteristic}, expected 1)"
        )
    defect = max_interior_circulation(mesh, form)
    if defect > closedness_tol:
        raise ClosednessError(
            f"form is not closed: max circulation {defect:.3e} "
            f"exceeds {closedness_tol:.3e}"
        )

    t = mesh.triangles
    cent = mesh.centroids
    pts = mesh.vertices
    order, pred = _bfs_tree(mesh)
    if len(order) != mesh.triangle_count:
        raise TopologyError("mesh is not edge-connected")
    # tree edges in BFS order; the shared edge is the parent's slot
    # holding the child
    child = order[1:]
    parent = pred[child]
    slot = np.argmax(mesh.neighbors[parent] == child[:, None], axis=1)
    a = t[parent, (slot + 1) % 3]
    b = t[parent, (slot + 2) % 3]
    m = 0.5 * (pts[a] + pts[b])
    inc1 = np.sum(form[parent] * (m - cent[parent]), axis=1)
    inc2 = np.sum(form[child] * (cent[child] - m), axis=1)
    # BFS order lists the tree level by level and the parents' positions
    # never decrease, so each level is one slice of the tree edges
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


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def save_form(mesh: Mesh, form, path) -> None:
    form = _check_form(mesh, form)
    write_csv(path, FORM_HEADER, [
        np.arange(mesh.triangle_count), form[:, 0], form[:, 1],
    ])


def load_form(mesh: Mesh, path) -> np.ndarray:
    data = read_csv(path, FORM_HEADER)
    if len(data) != mesh.triangle_count:
        raise ValueError("form file does not match the mesh")
    return data[:, 1:3].copy()


def save_polyline(points, path) -> None:
    pts = np.asarray(points, dtype=float)
    write_csv(path, POLYLINE_HEADER, [pts[:, 0], pts[:, 1]])


def load_polyline(path) -> np.ndarray:
    return read_csv(path, POLYLINE_HEADER)
