"""Piecewise-constant 1-forms on triangulations.

A form is a (T, 2) array of coefficients (p, q), meaning p dx + q dy on
each triangle.  The module provides the conserved-flux form of a spacelike
field, circulation around vertices (the discrete closedness test), the
split of circle polylines into pieces that each lie in one triangle (on
which the flux scan integrates forms exactly), and integration of a closed
form to a vertex potential.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .lorentz import flux_coeffs
from .mesh import Mesh, barycentric_rows
from .solver import p1_gradient

BARY_TOL = 1e-9
PARAM_MERGE_TOL = 1e-12


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
    pts = mesh.vertices[t]
    # corner i's loop crosses the triangle along half the edge from
    # corner i + 1 to corner i + 2; summed per vertex in the same order as
    # the solver's residual
    delta = 0.5 * (np.roll(pts, -2, axis=1) - np.roll(pts, -1, axis=1))
    local = np.sum(form[:, None, :] * delta, axis=2)
    return np.bincount(t.ravel(), weights=local.ravel(),
                       minlength=mesh.vertex_count)


def max_interior_circulation(mesh: Mesh, form) -> float:
    c = circulations(mesh, form)
    interior = mesh.interior_vertices
    if len(interior) == 0:
        return 0.0
    return float(np.abs(c[interior]).max())


# ----------------------------------------------------------------------
# polyline decomposition
# ----------------------------------------------------------------------


def polyline_pieces(mesh: Mesh, points, triangles=None):
    """Split a polyline at triangle boundaries, clipped to the mesh.

    Every returned piece lies inside a single triangle, so integrals of
    piecewise-constant forms over the pieces are exact.  Pieces outside the
    mesh are dropped, and so are pieces outside ``triangles`` when that
    subset is given.

    Each segment is cut into chunks no longer than h; a chunk is split
    where it crosses an edge of a triangle near it, and each piece belongs
    to the lowest-index nearby triangle that contains its midpoint.  All
    chunks of the polyline are handled in one pass over whole arrays.

    Returns (tri, delta, mid): piece owner indices (K,), piece vectors
    (K, 2), and piece midpoints (K, 2).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("polyline must be (N, 2)")
    if not np.isfinite(pts).all():
        raise ValueError("polyline has a non-finite point")
    mask = None
    if triangles is not None:
        mask = np.zeros(mesh.triangle_count, dtype=bool)
        mask[np.asarray(triangles, dtype=np.int64)] = True

    # chunks p -> q of every segment, cut at k/n as np.linspace(0, 1, n + 1)
    a = pts[:-1]
    seg = pts[1:] - a
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    keep = seg_len >= 1e-15
    a, seg = a[keep], seg[keep]
    nchunk = np.maximum(1, np.ceil(seg_len[keep] / max(mesh.h, 1e-12)))
    nchunk = nchunk.astype(np.int64)
    if len(nchunk) == 0:
        return (np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty((0, 2)))
    k = _ragged_arange(nchunk)
    n = np.repeat(nchunk, nchunk)
    c0 = k * (1.0 / n)
    c1 = np.where(k + 1 == n, 1.0, (k + 1) * (1.0 / n))
    a = np.repeat(a, nchunk, axis=0)
    seg = np.repeat(seg, nchunk, axis=0)
    p = a + c0[:, None] * seg
    q = a + c1[:, None] * seg
    d = q - p

    # candidate triangles near each chunk, sorted by (chunk, triangle)
    tree, rmax = mesh._locator
    radius = rmax + 0.5 * np.hypot(d[:, 0], d[:, 1]) + 1e-12
    lists = tree.query_ball_point(0.5 * (p + q), radius, return_sorted=True)
    ncand = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    cand = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                       count=int(ncand.sum()))
    cand_chunk = np.repeat(np.arange(len(p)), ncand)

    # chunk parameters where a candidate edge crosses the chunk
    corners = mesh.vertices[mesh.triangles[cand]]  # (C, 3, 2)
    dc = d[cand_chunk]
    pc = p[cand_chunk]
    ts = [np.zeros(len(p)), np.ones(len(p))]
    ts_chunk = [np.arange(len(p)), np.arange(len(p))]
    for i in range(3):
        a_pts = corners[:, i]
        e = corners[:, (i + 1) % 3] - a_pts
        denom = dc[:, 0] * e[:, 1] - dc[:, 1] * e[:, 0]
        ok = np.abs(denom) > 1e-15
        w = a_pts - pc
        t_par = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0])[ok] / denom[ok]
        s_par = (w[:, 0] * dc[:, 1] - w[:, 1] * dc[:, 0])[ok] / denom[ok]
        hit = (s_par >= -1e-12) & (s_par <= 1 + 1e-12) & \
              (t_par > PARAM_MERGE_TOL) & (t_par < 1 - PARAM_MERGE_TOL)
        ts.append(t_par[hit])
        ts_chunk.append(cand_chunk[ok][hit])
    ts = np.rint(np.concatenate(ts) / PARAM_MERGE_TOL) * PARAM_MERGE_TOL
    ts_chunk = np.concatenate(ts_chunk)
    order = np.lexsort((ts, ts_chunk))
    ts, ts_chunk = ts[order], ts_chunk[order]
    fresh = np.ones(len(ts), dtype=bool)
    fresh[1:] = (ts_chunk[1:] != ts_chunk[:-1]) | (ts[1:] != ts[:-1])
    ts, ts_chunk = ts[fresh], ts_chunk[fresh]

    # pieces between consecutive parameters of a chunk
    t0, t1 = ts[:-1], ts[1:]
    piece = (ts_chunk[:-1] == ts_chunk[1:]) & (t1 - t0 > PARAM_MERGE_TOL)
    t0, t1 = t0[piece], t1[piece]
    chunk = ts_chunk[:-1][piece]
    mid = p[chunk] + (0.5 * (t0 + t1))[:, None] * d[chunk]
    delta = (t1 - t0)[:, None] * d[chunk]

    # owner: lowest-index candidate of the chunk containing the midpoint
    per_piece = ncand[chunk]
    pair_piece = np.repeat(np.arange(len(chunk)), per_piece)
    pair = np.repeat((np.cumsum(ncand) - ncand)[chunk], per_piece) \
        + _ragged_arange(per_piece)
    bary = barycentric_rows(corners[pair], np.repeat(mid, per_piece, axis=0))
    lowest = np.minimum(np.minimum(bary[:, 0], bary[:, 1]), bary[:, 2])
    inside = lowest >= -BARY_TOL
    owner = np.full(len(chunk), mesh.triangle_count, dtype=np.int64)
    np.minimum.at(owner, pair_piece[inside], cand[pair][inside])
    located = owner < mesh.triangle_count
    if mask is not None:
        located[located] = mask[owner[located]]
    return owner[located], delta[located], mid[located]


def _ragged_arange(counts) -> np.ndarray:
    """Concatenated aranges 0..c-1 for each entry c of counts."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(np.sum(counts))) - np.repeat(starts, counts)


def _interp_at(mesh, scalar, tri, points):
    corners = mesh.triangles[tri]
    bary = barycentric_rows(mesh.vertices[corners], points)
    vals = scalar[corners]
    return (vals[:, 0] * bary[:, 0] + vals[:, 1] * bary[:, 1]
            + vals[:, 2] * bary[:, 2])


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
# potential integration
# ----------------------------------------------------------------------


def _bfs_tree(mesh: Mesh):
    """Breadth-first order and predecessors of the triangle adjacency graph.

    Rooted at triangle 0, first in first out, each triangle's neighbors
    taken in ascending index order.  Predecessors of the root and of
    unreached triangles are -1.  Built one level at a time: the unvisited
    neighbors of a level, listed by parent position and then ascending
    index and each kept at its first occurrence, are the next level in
    the order a FIFO queue reaches them.
    """
    nbrs = np.sort(mesh.neighbors, axis=1)  # boundary slots (-1) first
    pred = np.full(mesh.triangle_count, -1, dtype=np.int64)
    seen = np.zeros(mesh.triangle_count, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int64)
    levels = [level]
    while len(level):
        cand = nbrs[level].ravel()
        parent = np.repeat(level, 3)
        fresh = (cand >= 0) & ~seen[cand]
        cand, parent = cand[fresh], parent[fresh]
        first = np.sort(np.unique(cand, return_index=True)[1])
        level = cand[first]
        pred[level] = parent[first]
        seen[level] = True
        levels.append(level)
    return np.concatenate(levels), pred


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
    # false for nan as well, which would switch the closedness gate off
    if not 0.0 <= closedness_tol < np.inf:
        raise ValueError("closedness_tol must be finite and nonnegative")
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

