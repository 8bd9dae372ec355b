"""Independent oracles that only the tests read.

The Minkowski normals behind criterion 2, the factors of the coercivity
constant, the gradient margin of criterion 4 and of the solver's step
rows, criterion 8's fourth-order integrator of the Riccati problem, and
the former builds of the solver's assembly plan and of the potential's
tree, and the whole-array triangle kernels and mesh arrays (one pass
over all triangles, summed by one ``bincount``), which the parity tests
hold the current ones to.  No pipeline of
the package calls them, so they live here; the pointwise functions keep
the package's light-cone guard and raise its SpacelikeError.
"""

import math

import numpy as np

from maxsurf.lorentz import _density

MINKOWSKI_SIGNS = np.array([1.0, 1.0, -1.0])


def area_density(g) -> np.ndarray:
    """w = sqrt(1 - |g|^2), the Lorentzian area integrand."""
    return _density(np.asarray(g, dtype=float))


def unit_normal(g) -> np.ndarray:
    """Upward unit normal n = (-g, 1)/w with <n, n> = -1 in the Minkowski metric."""
    g = np.asarray(g, dtype=float)
    w = _density(g)
    return np.stack([-g[..., 0] / w, -g[..., 1] / w, 1.0 / w], axis=-1)


def minkowski_inner(u, v) -> np.ndarray:
    """Signature (+, +, -) inner product on (..., 3) arrays."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.sum(u * v * MINKOWSKI_SIGNS, axis=-1)


def normal_gap_sq(g, g2) -> np.ndarray:
    """Minkowski gap |n' - n|^2 = |g/w - g'/w'|^2 - (1/w - 1/w')^2.

    Positive for distinct spacelike normals even though the metric is
    indefinite, because both normals lie on the unit timelike hyperboloid.
    """
    g = np.asarray(g, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    w = _density(g)
    w2 = _density(g2)
    d = g / w[..., None] - g2 / w2[..., None]
    return np.sum(d * d, axis=-1) - (1.0 / w - 1.0 / w2) ** 2


def corner_gradients(mesh, values, triangles=slice(None)):
    """Each triangle's gradient g from its corner values f by a 2x2 solve
    of (p_i - p_0) . g = f_i - f_0, i = 1, 2, independently of the
    package's ``Mesh.basis_columns``."""
    p = mesh.vertices[mesh.triangles[triangles]]
    f = np.asarray(values, dtype=float)[mesh.triangles[triangles]]
    rhs = (f[:, 1:] - f[:, :1])[..., None]
    return np.linalg.solve(p[:, 1:] - p[:, :1], rhs)[..., 0]


def gradient_margin(mesh, values) -> float:
    """Spacelike margin 1 - max_T |grad v| over all triangles."""
    g = corner_gradients(mesh, values)
    return float(1.0 - np.sqrt(np.sum(g * g, axis=-1).max()))


# The coercivity constant c(eps) = c1 c2 for gradients with |g|, |g'| <= 1 - eps


def c1(eps: float) -> float:
    """min of (w + w')/2 over the admissible gradients, sqrt(eps (2-eps))."""
    return math.sqrt(eps * (2.0 - eps))


def c2(eps: float) -> float:
    """min of the Minkowski-to-Euclidean gap ratio, eps (2-eps)."""
    return eps * (2.0 - eps)


def r_max(eps: float) -> float:
    """Largest normalized gradient |g/w|, (1-eps)/sqrt(eps (2-eps))."""
    return (1.0 - eps) / math.sqrt(eps * (2.0 - eps))


def riccati_rk4(r0: float, mu: float, delta: float, c: float, t_eval,
                step_factor: float = 0.002, y_cap: float = 1e9,
                max_steps: int = 2_000_000):
    """Fourth-order integration of y' = c y^2 / (4 pi delta t),
    y(r0) = mu/(4 delta), independent of the closed form.

    Integrates in s = ln(t/r0), where the equation is autonomous, with an
    adaptive step keeping y's relative growth per step near step_factor.
    Returns (y at t_eval, blow-up radius): entries past the point where y
    exceeds y_cap are inf, and the second element is the radius where the
    cap was crossed (integration continues past the last t_eval until the
    cap is reached).
    """
    if min(r0, mu, delta, c) <= 0.0:
        raise ValueError("all comparison parameters must be positive")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < r0 * (1.0 - 1e-12)):
        raise ValueError("evaluation radii must be at or beyond r0")
    if np.any(np.diff(t_eval) < 0.0):
        raise ValueError("evaluation radii must be nondecreasing")
    k = c / (4.0 * math.pi * delta)
    y = mu / (4.0 * delta)
    s = 0.0
    s_lost = 0.0
    targets = np.log(np.maximum(t_eval, r0) / r0)
    out = np.full(len(t_eval), np.inf)
    steps = 0
    blown = False

    def advance(limit: float) -> bool:
        # steps until s reaches limit or y crosses the cap; s is accumulated
        # with a carry term because a position error ds_err inflates y by a
        # factor 1 + k*y*ds_err, ruinous near blow-up where k*y is huge
        nonlocal y, s, s_lost, steps
        while s < limit - 1e-15:
            ds = min(step_factor / (k * y), limit - s)
            k1 = k * y * y
            y2 = y + 0.5 * ds * k1
            k2 = k * y2 * y2
            y3 = y + 0.5 * ds * k2
            k3 = k * y3 * y3
            y4 = y + ds * k3
            k4 = k * y4 * y4
            y = y + ds * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            inc = ds - s_lost
            s_new = s + inc
            s_lost = (s_new - s) - inc
            s = s_new
            steps += 1
            if steps > max_steps:
                raise RuntimeError("integration stalled before blow-up")
            if y > y_cap:
                return True
        return False

    for idx, tgt in enumerate(targets):
        blown = advance(tgt)
        if blown:
            break
        out[idx] = y
    if not blown:
        blown = advance(math.inf)
    return out, r0 * math.exp(s)


# Former builds of the per-mesh tables, kept as references of the ones the
# package builds with fewer temporaries


def keyed_assembly_plan(mesh):
    """(edge_slots, diagonal_slots, indptr, indices) of the free-vertex
    block's pattern from one stable argsort of row-major keys over the V
    diagonal entries and the E edges as (lo, hi) and as (hi, lo)."""
    n = mesh.vertex_count
    lo, hi = mesh.edges.T
    free = mesh.interior_vertices
    renumber = np.full(n, -1, dtype=np.int64)
    renumber[free] = np.arange(len(free))
    rows = renumber[np.concatenate([np.arange(n), lo, hi])]
    cols = renumber[np.concatenate([np.arange(n), hi, lo])]
    index = np.int32 if len(rows) < 2**31 else np.int64
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    order = keep[np.argsort(rows[keep] * n + cols[keep], kind="stable")]
    diagonal = order < n
    edge_slots = np.where(diagonal, 0, (order - n) % len(lo)).astype(index)
    diagonal_slots = np.flatnonzero(diagonal).astype(index)
    counts = np.bincount(rows[order], minlength=len(free))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(index)
    indices = cols[order].astype(index)
    return edge_slots, diagonal_slots, indptr, indices


def six_slot_boundary_pairs(mesh):
    """(pair_tri, pair_vertex, pair_from): every boundary corner and
    interior corner of one triangle, from (6, T) tables of all ordered
    corner pairs, in pair order and then triangle order."""
    t = mesh.triangles
    vb, vn = t.T[[0, 0, 1, 1, 2, 2]], t.T[[1, 2, 0, 2, 0, 1]]
    boundary = mesh.boundary_vertex_mask
    sel = boundary[vb] & ~boundary[vn]
    return np.nonzero(sel)[1], vb[sel], vn[sel]


def stored_offset_potential(mesh, form):
    """``integrate_potential`` past its checks as it was with a tree that
    stored the corner offsets: tree edges found by an argmax over the
    neighbor table, the triangle potential level by level, then the
    corner and boundary averages."""
    from maxsurf.forms import _bfs_tree

    t = mesh.triangles
    coords = mesh.vertices.T
    cent = mesh.centroids
    order, pred, sizes, _ = _bfs_tree(mesh)
    child = order[1:]
    parent = pred[child]
    slot = np.argmax(mesh.neighbors[parent] == child[:, None], axis=1)
    a = t[parent, (slot + 1) % 3]
    b = t[parent, (slot + 2) % 3]
    to_mid = np.empty((2, len(child)))
    from_mid = np.empty((2, len(child)))
    to_corner = np.empty((2, 3, mesh.triangle_count))
    for d, c in enumerate(coords):
        m = 0.5 * (c[a] + c[b])
        np.subtract(m, cent[parent, d], out=to_mid[d])
        np.subtract(cent[child, d], m, out=from_mid[d])
        np.subtract(c[t.T], cent[:, d], out=to_corner[d])
    ends = (np.cumsum(sizes) - 1).tolist()
    p, q = form.T
    inc1 = p[parent] * to_mid[0] + q[parent] * to_mid[1]
    inc2 = p[child] * from_mid[0] + q[child] * from_mid[1]
    phi = np.zeros(mesh.triangle_count)
    for start, stop in zip(ends, ends[1:]):
        sel = slice(start, stop)
        phi[child[sel]] = (phi[parent[sel]] + inc1[sel]) + inc2[sel]
    est = phi + (p * to_corner[0] + q * to_corner[1])
    corner = t.T.ravel()
    u = np.bincount(corner, weights=est.ravel(),
                    minlength=mesh.vertex_count) / np.bincount(
                        corner, minlength=mesh.vertex_count)
    tri, vertex, start = six_slot_boundary_pairs(mesh)
    edge = coords[:, vertex] - coords[:, start]
    est = u[start] + (p[tri] * edge[0] + q[tri] * edge[1])
    sums = np.bincount(vertex, weights=est, minlength=mesh.vertex_count)
    counts = np.bincount(vertex, minlength=mesh.vertex_count)
    reached = np.flatnonzero(counts)
    u[reached] = sums[reached] / counts[reached]
    return u - u[0]


# Whole-array triangle kernels and mesh arrays, kept as references of the
# ones the package runs one block of triangles at a time: every (T,)
# temporary at once, and each sum over a mesh index table one np.bincount


def whole_array_centroids(mesh):
    """(T, 2) centroids from (3, T) corner gathers."""
    corners = mesh.triangles.T
    return np.stack([mesh.vertices[:, d][corners].sum(axis=0) / 3.0
                     for d in range(2)], axis=1)


def whole_array_basis_columns(mesh):
    """(2, 3, T) ``Mesh.basis_columns`` from (3, T) corner gathers."""
    corners = mesh.triangles.T
    x = mesh.vertices[:, 0][corners]
    y = mesh.vertices[:, 1][corners]
    out = np.empty((2, 3, len(mesh.triangles)))
    for i in range(3):
        ahead, behind = (i + 2) % 3, (i + 1) % 3
        out[0, i] = -(y[ahead] - y[behind])
        out[1, i] = x[ahead] - x[behind]
    out /= 2.0 * mesh.areas
    return out


def whole_array_gradient(mesh, values):
    """(T, 2) P1 gradient, corner by corner over all triangles."""
    corners = mesh.triangles
    g = np.empty((2, len(corners)))
    term = np.empty(len(corners))
    for i in range(3):
        vi = values[corners[:, i]]
        for row, b in zip(g, mesh.basis_columns[:, i]):
            if i == 0:
                np.multiply(vi, b, out=row)
            else:
                np.multiply(vi, b, out=term)
                row += term
    return g.T


def whole_array_divergence(mesh, wx, wy):
    """(V,) weak divergence of the area-weighted rows (wx, wy)."""
    bx, by = mesh.basis_columns
    local = np.empty((mesh.triangle_count, 3))
    term = np.empty(mesh.triangle_count)
    for i in range(3):
        np.multiply(bx[i], wx, out=local[:, i])
        np.multiply(by[i], wy, out=term)
        local[:, i] += term
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.vertex_count)


def whole_array_p1_divergence(mesh, fx, fy):
    return whole_array_divergence(mesh, mesh.areas * fx, mesh.areas * fy)


def whole_array_residual(mesh, ev):
    wx = ev.gx / ev.density
    wx *= mesh.areas
    wy = ev.gy / ev.density
    wy *= mesh.areas
    return whole_array_divergence(mesh, wx, wy)[mesh.interior_vertices]


def whole_array_tangent_data(mesh, ev):
    """The free block's CSR data of the Newton matrix of ``ev``: edge
    values from (T, 3) corner pairs, the diagonal minus the two sums over
    the edge ends, gathered by the mesh's assembly plan."""
    from maxsurf.solver import _plan

    dens = ev.density
    c1 = mesh.areas / dens
    c2 = dens * dens
    np.divide(c1, c2, out=c2)
    if ev.metric == "euclid":
        np.negative(c2, out=c2)
    bx, by = mesh.basis_columns
    bg = np.empty((3, mesh.triangle_count))
    u, w = np.empty((2, mesh.triangle_count))
    for k in range(3):
        np.multiply(bx[k], ev.gx, out=bg[k])
        np.multiply(by[k], ev.gy, out=w)
        bg[k] += w
    pair = np.empty((mesh.triangle_count, 3))
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        np.multiply(bx[a], bx[b], out=u)
        np.multiply(by[a], by[b], out=w)
        u += w
        u *= c1
        np.multiply(c2, bg[a], out=w)
        w *= bg[b]
        np.add(u, w, out=pair[:, k])
    edge = np.bincount(mesh.triangle_edges.ravel(), weights=pair.ravel(),
                       minlength=len(mesh.edges))
    lo, hi = mesh.edges.T
    n = mesh.vertex_count
    diag = -(np.bincount(lo, weights=edge, minlength=n)
             + np.bincount(hi, weights=edge, minlength=n))
    plan = _plan(mesh)
    data = edge[plan.edge_slots]
    data[plan.diagonal_slots] = diag[mesh.interior_vertices]
    return data


def whole_array_polyline_pieces(mesh, radii, triangles=None):
    """``forms.polyline_pieces`` with the radius bands of all triangles
    found at once."""
    from maxsurf.forms import ROOT_TOL

    radii = np.asarray(radii, dtype=float)
    if triangles is None:
        tris = np.arange(mesh.triangle_count)
    else:
        mask = np.zeros(mesh.triangle_count, dtype=bool)
        mask[np.asarray(triangles, dtype=np.int64)] = True
        tris = np.flatnonzero(mask)
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
