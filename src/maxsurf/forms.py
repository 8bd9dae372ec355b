"""Piecewise-constant 1-forms on triangulations.

A form is a (T, 2) array of coefficients (p, q), meaning p dx + q dy on
each triangle.  The module provides the conserved-flux form of a spacelike
field, circulation around vertices (the discrete closedness test), the
exact arcs in which origin-centred circles cross the triangles (on which
the flux scan integrates forms in closed form), and integration of a
closed form to a vertex potential.

The circulations of p dx + q dy are the solver's weak divergence
``p1_divergence`` of (-q, p); for the flux form they are minus the
solver's residual, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .lorentz import flux_coeffs
from .mesh import Mesh, scatter_add, triangle_blocks
from .solver import p1_divergence, p1_gradient

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
    dotted with half the opposite-edge vector, which is area_T
    grad(phi_i) . (-q, p).  Only interior entries are geometrically
    meaningful loops; boundary entries are partial fans.
    """
    form = _check_form(mesh, form)
    return p1_divergence(mesh, -form[:, 1], form[:, 0])


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
    are handled in one pass: the radius bands are found one block of
    triangles (``mesh.triangle_blocks``) at a time, and only the (triangle,
    radius) pairs they give are kept.

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
        parts = (np.arange(rows.start, rows.stop)
                 for rows in triangle_blocks(mesh.triangle_count))
    else:
        mask = np.zeros(mesh.triangle_count, dtype=bool)
        mask[np.asarray(triangles, dtype=np.int64)] = True
        tris = np.flatnonzero(mask)
        parts = (tris[rows] for rows in triangle_blocks(len(tris)))

    # the triangles whose radius band holds a radius, the first such
    # radius and their count
    tris, lo, count = map(np.concatenate, zip(*(
        _radius_bands(mesh, part, radii) for part in parts)))
    pair_tri = np.repeat(tris, count)
    pair_k = np.arange(int(count.sum())) \
        + np.repeat(lo - (np.cumsum(count) - count), count)

    # crossing angles of every (edge, radius), nan where there is none;
    # the keys are formed in int64, which int32 edge ids times nr could
    # overflow
    nr = len(radii)
    keys, inverse = np.unique(
        (mesh.triangle_edges[pair_tri].astype(np.int64) * nr
         + pair_k[:, None]).ravel(),
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


def _radius_bands(mesh: Mesh, tris: np.ndarray, radii: np.ndarray):
    """The triangles of ``tris`` whose radius band holds radii: the
    triangles, the index of the first such radius and the number of them.

    The band is [r_min, r_max]: r_max at a corner, r_min on an edge
    a + t d, or 0 when the origin lies left of all three edges.
    """
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
    met = count > 0
    return tris[met], lo[met], count[met]


# ----------------------------------------------------------------------
# potential integration
# ----------------------------------------------------------------------


def _bfs_tree(mesh: Mesh):
    """Breadth-first order, predecessors, level sizes and predecessor edge
    slots of the triangle adjacency graph.

    Rooted at triangle 0, first in first out, each triangle's neighbors
    taken in ascending index order.  Predecessors of the root and of
    unreached triangles are -1.  Built one level at a time: the unvisited
    neighbors of a level, listed by parent position and then ascending
    index and each kept at its first occurrence, are the next level in
    the order a FIFO queue reaches them.  The sizes count the triangles
    at each depth, the root's level of one first.  A reached triangle's
    slot is the edge slot of its predecessor that it lies across (0 at the
    root and at unreached triangles).
    """
    # neighbor m across slot i as 4 m + i: sorting a row sorts its
    # neighbors (boundary slots, -1, first) and keeps their slots
    nbrs = 4 * mesh.neighbors
    nbrs += np.arange(3)
    nbrs.sort(axis=1)
    pred = np.full(mesh.triangle_count, -1, dtype=np.int64)
    slot = np.zeros(mesh.triangle_count, dtype=np.int64)
    seen = np.zeros(mesh.triangle_count, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int64)
    levels = []
    while len(level):
        levels.append(level)
        key = nbrs[level].ravel()
        cand = key >> 2
        parent = np.repeat(level, 3)
        fresh = (cand >= 0) & ~seen[cand]
        key, cand, parent = key[fresh], cand[fresh], parent[fresh]
        first = np.sort(np.unique(cand, return_index=True)[1])
        level = cand[first]
        pred[level] = parent[first]
        slot[level] = key[first] & 3
        seen[level] = True
    return np.concatenate(levels), pred, [len(level) for level in levels], slot


class _PotentialTree:
    """The arrays of one mesh that ``integrate_potential`` reads.

    ``child`` and ``parent`` list the BFS tree edges in BFS order, each
    level one slice of them in ``levels``, cut at ``_bfs_tree``'s level
    sizes (a child's parent lies in the level before).  The path between
    their centroids crosses the midpoint of their shared edge: ``to_mid``
    runs from the parent's centroid to it, ``from_mid`` on to the child's.
    ``corner`` lists the triangles' corners, corner 0 of every triangle
    first, with ``corner_count`` corners per vertex.  ``pair_edge`` runs
    from interior corner ``pair_from`` to boundary corner ``pair_vertex``
    of triangle ``pair_tri``; ``reached`` are the boundary vertices with
    ``reached_count`` such pairs.  Offsets are stored as x and y rows.
    Built without a table over every triangle's corner pairs: the pairs
    are looked for only in triangles with a boundary corner.
    """

    def __init__(self, mesh: Mesh):
        t = mesh.triangles
        coords = mesh.vertices.T
        cent = mesh.centroids
        order, pred, sizes, slot = _bfs_tree(mesh)
        self.child = order[1:]
        self.parent = pred[self.child]
        slot = slot[self.child]
        a = t[self.parent, (slot + 1) % 3]
        b = t[self.parent, (slot + 2) % 3]
        del pred, slot
        self.to_mid = np.empty((2, len(self.child)))
        self.from_mid = np.empty((2, len(self.child)))
        for d, c in enumerate(coords):
            m = c[a]  # the midpoint, 0.5 (c[a] + c[b])
            m += c[b]
            m *= 0.5
            np.subtract(m, cent[self.parent, d], out=self.to_mid[d])
            np.subtract(cent[self.child, d], m, out=self.from_mid[d])
        del a, b
        # child omits the root, so each level ends one slot before its end
        # in order
        ends = (np.cumsum(sizes) - 1).tolist()
        self.levels = [slice(a, b) for a, b in zip(ends, ends[1:])]

        self.corner = t.T.ravel()
        n = mesh.vertex_count
        self.corner_count = scatter_add(np.zeros(n), self.corner, 1.0)
        boundary = mesh.boundary_vertex_mask
        near = np.flatnonzero(boundary[t].any(axis=1))
        near_t = t[near].T
        vb, vn = near_t[[0, 0, 1, 1, 2, 2]], near_t[[1, 2, 0, 2, 0, 1]]
        sel = boundary[vb] & ~boundary[vn]
        self.pair_tri = near[np.nonzero(sel)[1]]
        self.pair_vertex, self.pair_from = vb[sel], vn[sel]
        self.pair_edge = (coords[:, self.pair_vertex]
                          - coords[:, self.pair_from])
        counts = scatter_add(np.zeros(n), self.pair_vertex, 1.0)
        self.reached = np.flatnonzero(counts)
        self.reached_count = counts[self.reached]


def _potential_tree(mesh: Mesh) -> _PotentialTree:
    # kept in the instance dict, as the solver keeps its assembly plan: the
    # forward and the return leg of a round trip integrate on one mesh
    tree = mesh.__dict__.get("_potential_tree")
    if tree is None:
        tree = mesh.__dict__["_potential_tree"] = _PotentialTree(mesh)
    return tree


def integrate_potential(mesh: Mesh, form, closedness_tol: float = 1e-9) -> np.ndarray:
    """Vertex potential u with du approximating the given closed form.

    Requires a simply connected mesh (Euler characteristic 1) and max
    interior circulation at or below ``closedness_tol``.  The potential is
    built by breadth-first traversal of the triangle adjacency tree rooted
    at triangle 0, integrating the form exactly along centroid-to-centroid
    paths through shared-edge midpoints; the tree and its paths are built
    once per mesh.  Vertex values average the
    per-incident-triangle extrapolations, whose centroid-to-corner offsets
    are formed on each call in place; boundary vertices are then
    re-derived from their interior neighbors by exact edge integration,
    which keeps the reconstruction second order where one-sided fans would
    otherwise degrade it.  Each average is one ``mesh.scatter_add``.
    Normalized to u[0] = 0; deterministic for a fixed mesh; path
    independent up to closedness_tol times path length.
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

    tree = _potential_tree(mesh)
    p, q = form.T
    child, parent = tree.child, tree.parent
    inc1 = p[parent] * tree.to_mid[0] + q[parent] * tree.to_mid[1]
    inc2 = p[child] * tree.from_mid[0] + q[child] * tree.from_mid[1]
    phi = np.zeros(mesh.triangle_count)
    for sel in tree.levels:
        phi[child[sel]] = (phi[parent[sel]] + inc1[sel]) + inc2[sel]

    # each vertex averages its triangles' extrapolations, summed corner by
    # corner: corner 0 of every triangle, then corners 1 and 2; est is
    # (p dx + q dy) + phi, with (dx, dy) the centroid-to-corner offsets
    x, y = mesh.vertices.T
    cent = mesh.centroids
    est = x[tree.corner].reshape(3, -1)
    est -= cent[:, 0]
    est *= p
    off = y[tree.corner].reshape(3, -1)
    off -= cent[:, 1]
    off *= q
    est += off
    del off
    est += phi
    n = mesh.vertex_count
    u = scatter_add(np.zeros(n), tree.corner, est.ravel())
    u /= tree.corner_count

    # then each boundary vertex averages its interior neighbours' edge
    # integrals, summed corner pair by corner pair
    tri = tree.pair_tri
    est = u[tree.pair_from] + (p[tri] * tree.pair_edge[0]
                               + q[tri] * tree.pair_edge[1])
    sums = scatter_add(np.zeros(n), tree.pair_vertex, est)
    u[tree.reached] = sums[tree.reached] / tree.reached_count
    return u - u[0]

