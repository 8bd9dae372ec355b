"""Structured triangle meshes for planar domains.

Domains are rectangles, strips, and annuli; every generator produces a
conforming triangulation with counterclockwise triangles and classifies
vertices as interior, dirichlet (true boundary), or artificial (truncation
boundary of an unbounded domain).  The artificial class matters downstream:
artificial vertices are constrained by the solver exactly like dirichlet
ones, but they are not sources for the intrinsic distance field, because
they do not belong to the real boundary of the domain being modelled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .records import fmt, read_rows, write_rows

INTERIOR = 0
DIRICHLET = 1
ARTIFICIAL = 2

MESH_HEADER_FIELDS = 3  # V T h

_RECT_SIDES = ("left", "right", "bottom", "top")
_RINGS = ("inner", "outer")


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with vertex classes.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise
    vertex_class : (V,) int8 array with values INTERIOR/DIRICHLET/ARTIFICIAL
    h : float
        Nominal edge length used by the generator.
    shape_tag : str
        Informal label of the generator ("rectangle", "annulus", ...).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    h: float
    shape_tag: str = "custom"

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        c = np.ascontiguousarray(np.asarray(self.vertex_class, dtype=np.int8))
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        if c.shape != (len(v),):
            raise ValueError("vertex_class must be (V,)")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise ValueError("triangle index out of range")
        for arr in (v, t, c):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "vertex_class", c)
        self._validate()

    # ------------------------------------------------------------------
    # derived structure, computed once
    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @cached_property
    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    @cached_property
    def areas(self) -> np.ndarray:
        return np.abs(self.signed_areas)

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """(T, 3, 2) gradients of the barycentric basis functions.

        grad(lambda_i) = rot90(P_{i+2} - P_{i+1}) / (2 area), with rot90 the
        counterclockwise quarter turn.
        """
        p = self.vertices[self.triangles]
        out = np.empty((len(self.triangles), 3, 2))
        for i in range(3):
            d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
            out[:, i, 0] = -d[:, 1]
            out[:, i, 1] = d[:, 0]
        out /= (2.0 * self.signed_areas)[:, None, None]
        out.setflags(write=False)
        return out

    @cached_property
    def _edge_data(self):
        """Unique edges plus per-triangle edge ids and neighbor triangles."""
        t = self.triangles
        # edge slot i is opposite corner i
        raw = np.stack(
            [t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1
        ).reshape(-1, 2)
        raw_sorted = np.sort(raw, axis=1)
        edges, inverse, counts = np.unique(
            raw_sorted, axis=0, return_inverse=True, return_counts=True
        )
        if counts.max(initial=0) > 2:
            raise ValueError("an edge is shared by more than two triangles")
        tri_edges = inverse.reshape(-1, 3)
        neighbors = np.full((len(t), 3), -1, dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        slot_tri = order // 3
        slot_loc = order % 3
        eid = inverse[order]
        same = eid[:-1] == eid[1:]
        a = np.where(same)[0]
        neighbors[slot_tri[a], slot_loc[a]] = slot_tri[a + 1]
        neighbors[slot_tri[a + 1], slot_loc[a + 1]] = slot_tri[a]
        for arr in (edges, tri_edges, neighbors):
            arr.setflags(write=False)
        return edges, counts, tri_edges, neighbors

    @property
    def edges(self) -> np.ndarray:
        return self._edge_data[0]

    @property
    def edge_counts(self) -> np.ndarray:
        return self._edge_data[1]

    @property
    def triangle_edges(self) -> np.ndarray:
        return self._edge_data[2]

    @property
    def neighbors(self) -> np.ndarray:
        """(T, 3) neighbor triangle across edge slot i, or -1 on the boundary."""
        return self._edge_data[3]

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        edges, counts, _, _ = self._edge_data
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[edges[counts == 1].ravel()] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges) + self.triangle_count

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        out = np.where(self.vertex_class == INTERIOR)[0]
        out.setflags(write=False)
        return out

    @cached_property
    def constrained_vertices(self) -> np.ndarray:
        out = np.where(self.vertex_class != INTERIOR)[0]
        out.setflags(write=False)
        return out

    @cached_property
    def dirichlet_vertices(self) -> np.ndarray:
        out = np.where(self.vertex_class == DIRICHLET)[0]
        out.setflags(write=False)
        return out

    @cached_property
    def vertex_triangles(self) -> tuple:
        """Tuple of index arrays: triangles incident to each vertex."""
        order = np.argsort(self.triangles.ravel(), kind="stable")
        tri_of_slot = order // 3
        sorted_verts = self.triangles.ravel()[order]
        starts = np.searchsorted(sorted_verts, np.arange(self.vertex_count))
        ends = np.searchsorted(sorted_verts, np.arange(self.vertex_count), side="right")
        return tuple(tri_of_slot[s:e] for s, e in zip(starts, ends))

    # point location -----------------------------------------------------

    @cached_property
    def _locator(self):
        from scipy.spatial import cKDTree

        radii = np.linalg.norm(
            self.vertices[self.triangles] - self.centroids[:, None, :], axis=2
        ).max(axis=1)
        return cKDTree(self.centroids), float(radii.max())

    def candidates_near(self, point, extra: float = 0.0) -> np.ndarray:
        """Sorted triangle indices whose circumball may contain the point."""
        tree, rmax = self._locator
        idx = tree.query_ball_point(np.asarray(point, float), rmax + extra + 1e-12)
        return np.sort(np.asarray(idx, dtype=np.int64))

    def barycentric(self, tri_indices, point) -> np.ndarray:
        """Barycentric coordinates of one point in each listed triangle."""
        p = self.vertices[self.triangles[tri_indices]]
        d = np.asarray(point, float) - p[:, 0]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        return np.stack([1.0 - l1 - l2, l1, l2], axis=1)

    def find_triangle(self, point, tol: float = 1e-9):
        """Index of a triangle containing the point, lowest index on ties.

        Returns None when the point lies outside the mesh.
        """
        cands = self.candidates_near(point)
        if len(cands) == 0:
            return None
        bary = self.barycentric(cands, point)
        ok = bary.min(axis=1) >= -tol
        hits = np.where(ok)[0]
        if len(hits) == 0:
            return None
        return int(cands[hits[0]])

    # ------------------------------------------------------------------

    def _validate(self):
        if np.any(self.signed_areas <= 0):
            bad = int(np.argmin(self.signed_areas))
            raise ValueError(f"triangle {bad} is degenerate or clockwise")
        _ = self._edge_data  # raises on over-shared edges
        on_boundary = self.boundary_vertex_mask
        cls = self.vertex_class
        if np.any((cls != INTERIOR) & ~on_boundary):
            raise ValueError("non-interior class assigned to an interior vertex")
        if np.any((cls == INTERIOR) & on_boundary):
            raise ValueError("boundary vertex classed interior")
        if not np.all(np.isin(cls, (INTERIOR, DIRICHLET, ARTIFICIAL))):
            raise ValueError("unknown vertex class")
        # every vertex must belong to a triangle
        used = np.zeros(self.vertex_count, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise ValueError("unreferenced vertex")
        if self.triangle_count > 1:
            from scipy.sparse import coo_matrix
            from scipy.sparse.csgraph import connected_components

            nbrs = self.neighbors
            tri = np.repeat(np.arange(self.triangle_count), 3)
            flat = nbrs.ravel()
            ok = flat >= 0
            graph = coo_matrix(
                (np.ones(int(ok.sum())), (tri[ok], flat[ok])),
                shape=(self.triangle_count, self.triangle_count),
            )
            pieces = connected_components(graph, directed=False, return_labels=False)
            if pieces != 1:
                raise ValueError("triangle adjacency graph is disconnected")


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _grid_divisions(extent: float, h: float, name: str) -> int:
    if h <= 0:
        raise ValueError("h must be positive")
    if h > extent:
        raise ValueError(f"h={h} exceeds the {name} extent {extent}")
    n = int(round(extent / h))
    if n < 1 or abs(n * h - extent) > 1e-9 * max(1.0, extent):
        raise ValueError(f"h={h} does not divide the {name} extent {extent}")
    return n


def build_rectangle(length: float, height: float, h: float,
                    artificial_sides=()) -> Mesh:
    """Structured triangulation of [0, length] x [0, height].

    Each grid cell is split along its lower-left to upper-right diagonal.
    Boundary vertices are dirichlet unless every side through them is
    listed in ``artificial_sides`` (subset of left/right/bottom/top);
    a corner on one true side stays dirichlet.

    Parameters
    ----------
    length, height : positive extents; h must divide both within rounding.
    h : target edge length of the grid.
    artificial_sides : iterable of side names to class as artificial.
    """
    if length <= 0 or height <= 0:
        raise ValueError("rectangle extents must be positive")
    sides = tuple(artificial_sides)
    for s in sides:
        if s not in _RECT_SIDES:
            raise ValueError(f"unknown side {s!r}")
    nx = _grid_divisions(length, h, "length")
    ny = _grid_divisions(height, h, "height")
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v11 = vid(i + 1, j + 1)
            v01 = vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    side_hits = {
        "left": ii == 0,
        "right": ii == nx,
        "bottom": jj == 0,
        "top": jj == ny,
    }
    on_boundary = np.zeros(len(vertices), dtype=bool)
    on_true = np.zeros(len(vertices), dtype=bool)
    for name, hit in side_hits.items():
        on_boundary |= hit
        if name not in sides:
            on_true |= hit
    cls = np.zeros(len(vertices), dtype=np.int8)
    cls[on_boundary] = ARTIFICIAL
    cls[on_boundary & on_true] = DIRICHLET
    return Mesh(vertices, triangles, cls, float(h), shape_tag="rectangle")


def build_strip(length: float, height: float, h: float,
                ends_artificial: bool = True) -> Mesh:
    """Rectangle whose long sides are the true boundary.

    With ``ends_artificial`` the short ends x=0 and x=length are classed
    artificial, standing in for the truncation of an infinite strip; the
    four corners stay dirichlet because they lie on the long sides.
    """
    sides = ("left", "right") if ends_artificial else ()
    m = build_rectangle(length, height, h, artificial_sides=sides)
    return Mesh(m.vertices, m.triangles, m.vertex_class, m.h, shape_tag="strip")


def build_annulus(r_inner: float, r_outer: float, h: float,
                  n_theta: int | None = None, artificial_rings=()) -> Mesh:
    """Structured polar triangulation of an origin-centered annulus.

    Rings are equally spaced in radius, every ring carries the same number
    of angular divisions, so inner and outer rings have equal vertex
    counts.  Both rings are dirichlet unless named in ``artificial_rings``
    (subset of {"inner", "outer"}).

    Parameters
    ----------
    r_inner, r_outer : radii with 0 < r_inner < r_outer.
    h : target edge length; sets ring count and default angular divisions.
    n_theta : override for the number of angular divisions.
    """
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    rings = tuple(artificial_rings)
    for r in rings:
        if r not in _RINGS:
            raise ValueError(f"unknown ring {r!r}")
    if h <= 0:
        raise ValueError("h must be positive")
    n_r = max(1, int(round((r_outer - r_inner) / h)))
    if n_theta is None:
        n_theta = max(8, int(round(2.0 * np.pi * r_outer / h)))
    if n_theta < 3:
        raise ValueError("n_theta must be at least 3")

    radii = np.linspace(r_inner, r_outer, n_r + 1)
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rv, av = np.meshgrid(radii, angles, indexing="ij")
    vertices = np.column_stack(
        [(rv * np.cos(av)).ravel(), (rv * np.sin(av)).ravel()]
    )

    def vid(i, j):
        return i * n_theta + (j % n_theta)

    tris = []
    for i in range(n_r):
        for j in range(n_theta):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v11 = vid(i + 1, j + 1)
            v01 = vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)

    cls = np.zeros(len(vertices), dtype=np.int8)
    inner_cls = ARTIFICIAL if "inner" in rings else DIRICHLET
    outer_cls = ARTIFICIAL if "outer" in rings else DIRICHLET
    cls[:n_theta] = inner_cls
    cls[n_r * n_theta:] = outer_cls
    return Mesh(vertices, triangles, cls, float(h), shape_tag="annulus")


# ----------------------------------------------------------------------
# distance field and depth regions
# ----------------------------------------------------------------------


def intrinsic_distance(mesh: Mesh, augment_diagonals: bool = False) -> np.ndarray:
    """Graph distance from the dirichlet boundary along mesh edges.

    Multi-source Dijkstra with Euclidean edge weights; sources are the
    dirichlet vertices only, so the field measures depth into the true
    domain and ignores artificial truncation boundaries.  The graph metric
    overestimates the intrinsic distance by at most the mesh anisotropy
    factor (sqrt(2) on the structured grids here); ``augment_diagonals``
    adds the opposite diagonal of every convex edge-pair quad to tighten
    that factor.

    Returns the (V,) distance array; dirichlet vertices get 0.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    sources = mesh.dirichlet_vertices
    if len(sources) == 0:
        raise ValueError("mesh has no dirichlet vertices")
    edges = mesh.edges
    if augment_diagonals:
        extra = _opposite_diagonals(mesh)
        if len(extra):
            edges = np.vstack([edges, extra])
    w = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    n = mesh.vertex_count
    g = coo_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    ).tocsr()
    dist = dijkstra(g, directed=False, indices=sources, min_only=True)
    return np.asarray(dist)


def _opposite_diagonals(mesh: Mesh) -> np.ndarray:
    """Cross diagonals (a, b) of convex quads formed by edge-adjacent triangles."""
    tris = mesh.triangles
    nbrs = mesh.neighbors
    out = []
    for t in range(len(tris)):
        for slot in range(3):
            t2 = nbrs[t, slot]
            if t2 <= t:
                continue
            a = tris[t, slot]
            shared = {tris[t, (slot + 1) % 3], tris[t, (slot + 2) % 3]}
            b = next(v for v in tris[t2] if v not in shared)
            u, v = sorted(shared)
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            pu, pv = mesh.vertices[u], mesh.vertices[v]
            # segment a-b must cross segment u-v for the quad to be convex
            d = pb - pa
            e = pv - pu
            det = d[0] * e[1] - d[1] * e[0]
            if abs(det) < 1e-14:
                continue
            s = ((pu - pa)[0] * e[1] - (pu - pa)[1] * e[0]) / det
            r = ((pu - pa)[0] * d[1] - (pu - pa)[1] * d[0]) / -det
            if 1e-12 < s < 1 - 1e-12 and 1e-12 < r < 1 - 1e-12:
                out.append((min(a, b), max(a, b)))
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.asarray(out, dtype=np.int64), axis=0)


def inner_region(mesh: Mesh, distance: np.ndarray, depth: float) -> np.ndarray:
    """Vertex indices strictly deeper than ``depth`` from the true boundary.

    Negative depth is clamped to zero with a warning; depth 0 returns all
    non-dirichlet vertices.
    """
    distance = np.asarray(distance)
    if distance.shape != (mesh.vertex_count,):
        raise ValueError("distance field does not match the mesh")
    if depth < 0:
        warnings.warn("negative depth clamped to 0", stacklevel=2)
        depth = 0.0
    return np.where(distance > depth)[0]


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    """Write the text format: header 'V T h', V lines 'x y class', T lines 'i j k'."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.vertex_count} {mesh.triangle_count} {fmt(mesh.h)}\n")
        write_rows(fh, [mesh.vertices[:, 0], mesh.vertices[:, 1],
                        mesh.vertex_class], sep=" ")
        write_rows(fh, mesh.triangles.T, sep=" ")


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != MESH_HEADER_FIELDS:
            raise ValueError("bad mesh header")
        nv, nt = int(header[0]), int(header[1])
        h = float(header[2])
        if nv < 1 or nt < 1:
            raise ValueError("bad mesh header: counts must be positive")
        vert = read_rows(fh, 3, "mesh vertex lines", max_rows=nv)
        tris = read_rows(fh, 3, "mesh triangle lines", max_rows=nt,
                         dtype=np.int64)
    if len(vert) != nv or len(tris) != nt:
        raise ValueError(f"mesh file is truncated: its header says {nv} "
                         f"vertex and {nt} triangle lines")
    if not np.isfinite(vert).all():
        raise ValueError("mesh vertex lines: non-finite value")
    if not np.isin(vert[:, 2], (INTERIOR, DIRICHLET, ARTIFICIAL)).all():
        raise ValueError("mesh vertex lines: unknown vertex class")
    return Mesh(vert[:, :2], tris, vert[:, 2], h, shape_tag="file")
