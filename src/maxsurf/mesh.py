"""Structured triangle meshes for planar domains.

Domains are rectangles, strips, and annuli; every generator produces a
conforming triangulation with counterclockwise triangles and classifies
vertices as interior, dirichlet (true boundary), or artificial (truncation
boundary of an unbounded domain).  The solver constrains artificial
vertices exactly like dirichlet ones; the class marks the data that stands
in for a truncation rather than for the real boundary of the domain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .records import fmt, read_rows, write_rows

INTERIOR = 0
DIRICHLET = 1
ARTIFICIAL = 2

MESH_HEADER_FIELDS = 3  # V T h

_RECT_SIDES = ("left", "right", "bottom", "top")
_RINGS = ("inner", "outer")


TRIANGLE_BLOCK = 8192  # triangles per block of the per-triangle kernels


def table_dtype(vertex_count: int, edge_count: int):
    """int32 for the index tables of a mesh of these counts, else int64.

    int32 when V + 2E, the most slots the solver's assembly plan numbers,
    is below 2**31; then every vertex and edge id fits as well.
    """
    return np.int32 if vertex_count + 2 * edge_count < 2**31 else np.int64


def triangle_blocks(count: int) -> list[slice]:
    """Consecutive slices of ``count`` rows, TRIANGLE_BLOCK rows each but
    the last, and one empty slice for no rows: the per-triangle kernels
    work one block at a time, so their temporaries do not grow with the
    mesh."""
    return [slice(start, min(start + TRIANGLE_BLOCK, count))
            for start in range(0, max(count, 1), TRIANGLE_BLOCK)]


def scatter_add(out: np.ndarray, index: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Add ``weights`` into the float64 ``out`` at ``index``; returns out.

    ``np.add.at`` adds in index order, as ``np.bincount`` does, so into a
    zeroed ``out`` the sums are ``bincount``'s bit for bit, and blocks of
    one index array added in order give its whole sums.  It reads an int32
    or read-only index array as it is, where ``bincount`` would cast a copy
    to intp on every call.
    """
    np.add.at(out, index, weights)
    return out


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with vertex classes.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise; int32 unless
        ``table_dtype`` of V and 3T (the most edges T triangles have) is
        int64, and so are the edge ends and ``triangle_edges``
    vertex_class : (V,) int8 array with values INTERIOR/DIRICHLET/ARTIFICIAL
    h : float
        Nominal edge length used by the generator.

    Construction checks the mesh, and so builds ``areas`` and the edge
    table: ``edges``, ``triangle_edges``, ``boundary_vertex_mask`` and
    whether the triangles are edge-connected, all from one sort of the edge
    slots.  Every other derived array (``centroids``,
    ``basis_columns``, ``interior_vertices``, ...) is built on first read
    and kept, except ``neighbors``, which is built on every read.  The
    arrays are read-only, and the mesh keeps its own copy of
    ``triangles``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_class: np.ndarray
    h: float

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.asarray(self.triangles)
        c = np.asarray(self.vertex_class)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        # a nan corner would pass the degenerate-triangle test below
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        if c.shape != (len(v),):
            raise ValueError("vertex_class must be (V,)")
        # checked before the casts, which would truncate or wrap
        if t.dtype.kind not in "iu" and not np.array_equal(t, np.floor(t)):
            raise ValueError("triangle indices must be integers")
        if t.min(initial=0) < 0 or t.max(initial=-1) >= len(v):
            raise ValueError("triangle index out of range")
        if not np.isin(c, (INTERIOR, DIRICHLET, ARTIFICIAL)).all():
            raise ValueError("unknown vertex class")
        t = np.array(t, dtype=table_dtype(len(v), 3 * len(t)), order="C")
        c = np.ascontiguousarray(c, dtype=np.int8)
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
    def areas(self) -> np.ndarray:
        """(T,) signed areas, counterclockwise positive.

        Construction rejects a mesh where any of them is not positive, so
        on every mesh they are the triangle areas.
        """
        corners = self.triangles.T
        x = self.vertices[:, 0][corners]
        y = self.vertices[:, 1][corners]
        return 0.5 * ((x[1] - x[0]) * (y[2] - y[0])
                      - (y[1] - y[0]) * (x[2] - x[0]))

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def centroids(self) -> np.ndarray:
        corners = self.triangles.T
        return np.stack([self.vertices[:, d][corners].sum(axis=0) / 3.0
                         for d in range(2)], axis=1)

    @cached_property
    def basis_columns(self) -> np.ndarray:
        """(2, 3, T) gradients of the barycentric basis functions, by row.

        Row [d, i] is component d of grad(lambda_i) on every triangle, with
        grad(lambda_i) = rot90(P_{i+2} - P_{i+1}) / (2 area) and rot90 the
        counterclockwise quarter turn.  The solver's kernels work on these
        contiguous (T,) rows.
        """
        corners = self.triangles.T
        x = self.vertices[:, 0][corners]
        y = self.vertices[:, 1][corners]
        out = np.empty((2, 3, len(self.triangles)))
        for i in range(3):
            ahead, behind = (i + 2) % 3, (i + 1) % 3
            out[0, i] = -(y[ahead] - y[behind])
            out[1, i] = x[ahead] - x[behind]
        out /= 2.0 * self.areas
        out.setflags(write=False)
        return out

    @cached_property
    def _edge_data(self):
        """Unique edge ends as (2, E) lo and hi rows, per-triangle edge ids,
        the boundary vertex mask and whether the triangles are
        edge-connected, all from one stable sort of the 3T edge slots by
        key.  The ends and ids take the dtype of ``triangles``."""
        t = self.triangles
        nv = self.vertex_count
        # edge slot i is opposite corner i; one int64 key lo * V + hi per
        # edge sorts like its (lo, hi) row; exact for V below about 3e9
        keys = np.empty((len(t), 3), dtype=np.int64)
        lo = np.empty(len(t), dtype=np.int64)
        for i in range(3):
            a, b = t[:, (i + 1) % 3], t[:, (i + 2) % 3]
            np.minimum(a, b, out=lo)
            lo *= nv
            np.maximum(a, b, out=keys[:, i])
            keys[:, i] += lo
        order = np.argsort(keys.reshape(-1), kind="stable")
        keys = keys.reshape(-1)[order]
        new = np.empty(len(keys), dtype=bool)  # starts a run of equal keys
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        counts = np.diff(first, append=len(keys))
        if counts.max(initial=0) > 2:
            raise ValueError("an edge is shared by more than two triangles")
        keys = keys[first]
        ends = np.empty((2, len(keys)), dtype=t.dtype)
        np.floor_divide(keys, nv, out=ends[0])
        np.remainder(keys, nv, out=ends[1])
        ids = np.repeat(np.arange(len(first), dtype=t.dtype), counts)
        tri_edges = np.empty((len(t), 3), dtype=t.dtype)
        tri_edges.reshape(-1)[order] = ids  # edge id by run
        boundary = np.zeros(nv, dtype=bool)
        boundary[ends[:, counts == 1]] = True
        pair = np.flatnonzero(~new[1:])  # the two slots of a shared edge
        connected = _edge_connected(order[pair] // 3, order[pair + 1] // 3,
                                    len(t))
        for arr in (ends, tri_edges, boundary):
            arr.setflags(write=False)
        return ends, tri_edges, boundary, connected

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) unique edges (lo, hi), lo < hi, sorted by row.

        A view of (2, E) memory, so that ``edges.T`` is the contiguous
        lo and hi rows.
        """
        return self._edge_data[0].T

    @property
    def triangle_edges(self) -> np.ndarray:
        return self._edge_data[1]

    @property
    def boundary_vertex_mask(self) -> np.ndarray:
        return self._edge_data[2]

    @property
    def neighbors(self) -> np.ndarray:
        """(T, 3) neighbor triangle across edge slot i, or -1 on the boundary.

        Built on every read and not kept: the potential's tree, built once
        per mesh, is its one reader.  A stable sort of the slots' edge ids
        orders them as the construction's sort of their keys did.
        """
        ids = self.triangle_edges.reshape(-1)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        pair = np.flatnonzero(ids[1:] == ids[:-1])
        del ids
        lower = order[pair]  # slot = 3 tri + corner
        pair += 1
        upper = order[pair]
        del order, pair
        out = np.full((self.triangle_count, 3), -1, dtype=np.int64)
        out.reshape(-1)[lower] = upper // 3
        out.reshape(-1)[upper] = lower // 3
        out.setflags(write=False)
        return out

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

    # ------------------------------------------------------------------

    def _validate(self):
        if np.any(self.areas <= 0):
            bad = int(np.argmin(self.areas))
            raise ValueError(f"triangle {bad} is degenerate or clockwise")
        # the edge table raises on over-shared edges
        _, _, on_boundary, connected = self._edge_data
        cls = self.vertex_class
        if np.any((cls != INTERIOR) & ~on_boundary):
            raise ValueError("non-interior class assigned to an interior vertex")
        if np.any((cls == INTERIOR) & on_boundary):
            raise ValueError("boundary vertex classed interior")
        # every vertex must belong to a triangle
        used = np.zeros(self.vertex_count, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise ValueError("unreferenced vertex")
        if not connected:
            raise ValueError("triangle adjacency graph is disconnected")


def _edge_connected(tri_a, tri_b, count) -> bool:
    """Whether every one of ``count`` triangles reaches triangle 0 across
    the shared edges joining triangles ``tri_a`` and ``tri_b``.

    Union-find over whole arrays, in rounds: each triangle is hooked onto
    the smallest triangle across any of its edges, every hook chain is
    shortcut to its end (a root, which has no smaller neighbour), and the
    next round runs on the roots, renumbered in order, joined by the edges
    between their trees.  The mesh is connected when a round leaves one
    root; triangle 0 is always root 0.
    """
    while True:
        label = np.arange(count)
        np.minimum.at(label, np.maximum(tri_a, tri_b),
                      np.minimum(tri_a, tri_b))
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
        la, lb = label[tri_a], label[tri_b]
        between = la != lb
        root = label == np.arange(count)
        count = int(np.count_nonzero(root))
        if not between.any():
            return count <= 1
        rank = np.cumsum(root) - 1
        tri_a, tri_b = rank[la[between]], rank[lb[between]]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _split_quads(v00, v10, v11, v01) -> np.ndarray:
    """Two counterclockwise triangles per quad, split along v00-v11.

    The arguments are equal-shape arrays of corner indices; quads are taken
    in row-major order, each giving (v00, v10, v11) then (v00, v11, v01).
    """
    return np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)


def _divisions(extent: float, h: float, name: str) -> int:
    """round(extent / h), refused where the quotient overflows."""
    steps = float(extent) / float(h)  # a numpy scalar would warn
    if not np.isfinite(steps):
        raise ValueError(f"h={h} gives no finite division count of the "
                         f"{name} {extent}")
    return int(round(steps))


def _grid_divisions(extent: float, h: float, name: str) -> int:
    if h <= 0:
        raise ValueError("h must be positive")
    if h > extent:
        raise ValueError(f"h={h} exceeds the {name} extent {extent}")
    n = _divisions(extent, h, f"{name} extent")
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

    # vertex index of grid point (x_i, y_j) at [j, i]
    vid = np.arange(len(vertices), dtype=np.int64).reshape(ny + 1, nx + 1)
    triangles = _split_quads(vid[:-1, :-1], vid[:-1, 1:], vid[1:, 1:],
                             vid[1:, :-1])

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
    return Mesh(vertices, triangles, cls, float(h))


def build_strip(length: float, height: float, h: float) -> Mesh:
    """Rectangle whose long sides are the true boundary.

    The short ends x=0 and x=length are classed artificial, standing in
    for the truncation of an infinite strip; the four corners stay
    dirichlet because they lie on the long sides.
    """
    return build_rectangle(length, height, h, artificial_sides=("left", "right"))


def build_annulus(r_inner: float, r_outer: float, h: float,
                  artificial_rings=()) -> Mesh:
    """Structured polar triangulation of an origin-centered annulus.

    Rings are equally spaced in radius, every ring carries the same number
    of angular divisions, so inner and outer rings have equal vertex
    counts.  Both rings are dirichlet unless named in ``artificial_rings``
    (subset of {"inner", "outer"}).

    Parameters
    ----------
    r_inner, r_outer : radii with 0 < r_inner < r_outer.
    h : target edge length; sets the ring count and the angular divisions,
        round(2 pi r_outer / h) and at least 8.
    """
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    rings = tuple(artificial_rings)
    for r in rings:
        if r not in _RINGS:
            raise ValueError(f"unknown ring {r!r}")
    if h <= 0:
        raise ValueError("h must be positive")
    n_r = max(1, _divisions(r_outer - r_inner, h, "radial extent"))
    n_theta = max(8, _divisions(2.0 * np.pi * r_outer, h,
                                "outer circumference"))

    radii = np.linspace(r_inner, r_outer, n_r + 1)
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rv, av = np.meshgrid(radii, angles, indexing="ij")
    vertices = np.column_stack(
        [(rv * np.cos(av)).ravel(), (rv * np.sin(av)).ravel()]
    )

    # vertex index of ring i, angle j at [i, j]; column n_theta wraps to 0
    vid = np.arange(len(vertices), dtype=np.int64).reshape(n_r + 1, n_theta)
    vid = np.column_stack([vid, vid[:, 0]])
    triangles = _split_quads(vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:],
                             vid[:-1, 1:])

    cls = np.zeros(len(vertices), dtype=np.int8)
    inner_cls = ARTIFICIAL if "inner" in rings else DIRICHLET
    outer_cls = ARTIFICIAL if "outer" in rings else DIRICHLET
    cls[:n_theta] = inner_cls
    cls[n_r * n_theta:] = outer_cls
    return Mesh(vertices, triangles, cls, float(h))


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
        if max(nv, nt) >= 2**63:
            raise ValueError(f"bad mesh header: counts {header[0]} and "
                             f"{header[1]} must be below 2**63")
        if not 0.0 < h < np.inf:
            raise ValueError(f"bad mesh header: h = {header[2]} is not "
                             "finite and positive")
        # a line "a b c" takes 6 bytes at least, the last 5 without "\n"
        size = os.fstat(fh.fileno()).st_size
        if 6 * (nv + nt) - 1 > size - fh.tell():
            raise ValueError(f"bad mesh header: {nv} vertex and {nt} "
                             f"triangle lines do not fit in the {size}-byte "
                             "file")
        vert = read_rows(fh, 3, "mesh vertex lines", max_rows=nv)
        tris = read_rows(fh, 3, "mesh triangle lines", max_rows=nt,
                         dtype=np.int64)
        trailing = fh.read().strip()
    if len(vert) != nv or len(tris) != nt or trailing:
        raise ValueError(f"mesh file is truncated or too long: its header "
                         f"says {nv} vertex and {nt} triangle lines")
    if not np.isfinite(vert).all():
        raise ValueError("mesh vertex lines: non-finite value")
    if not np.isin(vert[:, 2], (INTERIOR, DIRICHLET, ARTIFICIAL)).all():
        raise ValueError("mesh vertex lines: unknown vertex class")
    return Mesh(vert[:, :2], tris, vert[:, 2], h)
