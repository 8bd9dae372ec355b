"""Piecewise-constant 1-forms on triangulations.

A form is a (T, 2) array of coefficients (p, q), meaning p dx + q dy on
each triangle.  The module provides the conserved-flux form of a spacelike
field, circulation around vertices (the discrete closedness test), the
exact arcs in which origin-centred circles cross the triangles (on which
the flux scan integrates forms in closed form), and integration of a
closed form to a vertex potential.
"""

from __future__ import annotations

import numpy as np

from .lorentz import flux_coeffs
from .mesh import Mesh
from .solver import p1_gradient

ROOT_TOL = 1e-9


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
# circle arcs
# ----------------------------------------------------------------------


def polyline_pieces(mesh: Mesh, radii, triangles=None):
    """Exact arcs in which origin-centred circles cross the triangles.

    Every arc lies inside a single triangle, so integrals of
    piecewise-constant forms, and of affine fields against them, have
    closed forms on the arcs.  Arcs outside the mesh are dropped, and so
    are arcs outside ``triangles`` when that subset is given.  All radii
    are handled in one pass over whole arrays.

    The routine keeps the name of the polyline clipper it replaced, so
    that the benchmark's tracer, which hooks ``forms.polyline_pieces``,
    keeps timing and counting the circle clipping of the flux scan.

    A triangle T meets the circle of radius r exactly when r lies in its
    radius band [r_min(T), r_max(T)].  The circle's crossings of an edge
    are found once per (edge, radius), in the orientation ``mesh.edges``
    gives, so the two triangles sharing an edge split their arcs at
    bit-identical angles.  Each triangle's angles are sorted, the last is
    wrapped to the first plus 2 pi, and the arcs between consecutive
    angles whose midpoints lie inside the triangle are kept; a point on a
    shared edge belongs to the triangle left of the edge's stored
    direction, so the arcs tile each circle.  A circle tangent to an edge,
    or through its ends, to within ``ROOT_TOL`` gets a split there too:
    a split never changes which parts of the circle are kept.  A triangle
    the circle meets but never crosses holds the whole circle.

    Returns (tri, k, theta0, theta1): owner triangles (A,), radius
    indices into ``radii`` (A,), and start and end angles (A,), with
    theta0 < theta1 <= theta0 + 2 pi, counterclockwise.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not np.isfinite(radii).all():
        raise ValueError("radii must be a 1d array of finite values")
    if np.any(radii <= 0.0) or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be positive and strictly increasing")
    if triangles is None:
        tris = np.arange(mesh.triangle_count)
    else:
        mask = np.zeros(mesh.triangle_count, dtype=bool)
        mask[np.asarray(triangles, dtype=np.int64)] = True
        tris = np.flatnonzero(mask)

    # radius bands: r_max at a corner, r_min on an edge a + t d, or 0
    # when the origin lies left of all three edges
    corners = mesh.triangles[tris]
    x = [mesh.vertices[corners[:, i], 0] for i in range(3)]
    y = [mesh.vertices[corners[:, i], 1] for i in range(3)]
    r_min = np.full(len(tris), np.inf)
    r_max = np.zeros(len(tris))
    origin_inside = np.ones(len(tris), dtype=bool)
    for i in range(3):
        ax, ay = x[(i + 1) % 3], y[(i + 1) % 3]
        dx, dy = x[(i + 2) % 3] - ax, y[(i + 2) % 3] - ay
        t = np.clip(-(ax * dx + ay * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        qx, qy = ax + t * dx, ay + t * dy
        r_min = np.minimum(r_min, qx * qx + qy * qy)
        r_max = np.maximum(r_max, x[i] * x[i] + y[i] * y[i])
        origin_inside &= dy * ax - dx * ay >= 0.0
    r_min = np.where(origin_inside, 0.0, np.sqrt(r_min))
    r_max = np.sqrt(r_max)
    lo = np.searchsorted(radii, r_min, side="left")
    count = np.searchsorted(radii, r_max, side="right") - lo
    pair_tri = np.repeat(tris, count)
    pair_k = np.arange(int(count.sum())) \
        + np.repeat(lo - (np.cumsum(count) - count), count)

    # crossing angles of every (edge, radius), nan where there is none
    nr = len(radii)
    keys, inverse = np.unique(
        (mesh.triangle_edges[pair_tri] * nr + pair_k[:, None]).ravel(),
        return_inverse=True)
    edge, k = np.divmod(keys, nr)
    ends = mesh.vertices[mesh.edges[edge]]
    ea = ends[:, 0]
    ed = ends[:, 1] - ea
    r_sq = radii[k] ** 2
    dd = np.sum(ed * ed, axis=1)
    t_near = -np.sum(ea * ed, axis=1) / dd
    near = ea + t_near[:, None] * ed
    chord_sq = r_sq - np.sum(near * near, axis=1)
    dt = np.sqrt(np.maximum(chord_sq, 0.0) / dd)
    t = np.stack([t_near - dt, t_near + dt], axis=1)
    hit = (chord_sq >= -ROOT_TOL * r_sq)[:, None] \
        & (t >= -ROOT_TOL) & (t <= 1.0 + ROOT_TOL)
    pts = ea[:, None, :] + t[..., None] * ed[:, None, :]
    roots = np.where(hit, np.arctan2(pts[..., 1], pts[..., 0]), np.nan)
    ang = np.sort(roots[inverse].reshape(len(pair_tri), 6), axis=1)

    # arcs between consecutive angles; no crossing gives (-pi, pi)
    m = np.count_nonzero(~np.isnan(ang), axis=1)
    ang[m == 0, 0] = -np.pi
    m = np.maximum(m, 1)[:, None]
    col = np.arange(6)
    wrap = ang[:, :1] + 2.0 * np.pi
    end = np.where(col == m - 1, wrap,
                   np.concatenate([ang[:, 1:], wrap], axis=1))
    row, col = np.nonzero((col < m) & (end > ang))
    tri, k = pair_tri[row], pair_k[row]
    theta0, theta1 = ang[row, col], end[row, col]

    # midpoint side of each edge, with the edge as stored
    mid = 0.5 * (theta0 + theta1)
    mx = radii[k] * np.cos(mid)
    my = radii[k] * np.sin(mid)
    tri_edges = mesh.triangle_edges[tri]
    ends = mesh.vertices[mesh.edges[tri_edges]]
    ea = ends[:, :, 0]
    ed = ends[:, :, 1] - ea
    side = ed[..., 0] * (my[:, None] - ea[..., 1]) \
        - ed[..., 1] * (mx[:, None] - ea[..., 0])
    left = mesh.edges[tri_edges, 0] == mesh.triangles[tri][:, [1, 2, 0]]
    inside = np.where(left, side >= 0.0, side < 0.0).all(axis=1)
    return tri[inside], k[inside], theta0[inside], theta1[inside]


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

