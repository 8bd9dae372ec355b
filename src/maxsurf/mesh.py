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
    whether the triangles are edge-connected, all from one stable sort of
    the 3T edge slots by key.  Each table is allocated whole and filled
    one block of ``TRIANGLE_BLOCK`` triangles, or of 3 ``TRIANGLE_BLOCK``
    sorted slots, at a time, and the few temporaries that span the mesh
    are dropped once read.  Every other derived array (``centroids``,
    ``basis_columns``, ``interior_vertices``, ...) is built on first read,
    by blocks where it is per triangle, and kept, except ``neighbors``,
    which is built on every read.  The arrays are read-only, and the mesh
    keeps its own copy of ``triangles``.
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

    def _corner_blocks(self):
        """(rows, x, y) for each block of triangles: its slice of rows and
        the (3, B) coordinates of its triangles' corners."""
        x, y = self.vertices.T
        for rows in triangle_blocks(self.triangle_count):
            # numpy gathers through intp indices about thrice as fast
            corners = self.triangles[rows].T.astype(np.intp)
            yield rows, x[corners], y[corners]

    @cached_property
    def areas(self) -> np.ndarray:
        """(T,) signed areas, counterclockwise positive.

        Construction rejects a mesh where any of them is not positive, so
        on every mesh they are the triangle areas.
        """
        out = np.empty(self.triangle_count)
        for rows, x, y in self._corner_blocks():
            out[rows] = 0.5 * ((x[1] - x[0]) * (y[2] - y[0])
                               - (y[1] - y[0]) * (x[2] - x[0]))
        return out

    @cached_property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def centroids(self) -> np.ndarray:
        out = np.empty((self.triangle_count, 2))
        for rows, x, y in self._corner_blocks():
            # left to right, as sum(axis=0) adds three rows
            out[rows, 0] = (x[0] + x[1] + x[2]) / 3.0
            out[rows, 1] = (y[0] + y[1] + y[2]) / 3.0
        return out

    @cached_property
    def basis_columns(self) -> np.ndarray:
        """(2, 3, T) gradients of the barycentric basis functions, by row.

        Row [d, i] is component d of grad(lambda_i) on every triangle, with
        grad(lambda_i) = rot90(P_{i+2} - P_{i+1}) / (2 area) and rot90 the
        counterclockwise quarter turn.  The solver's kernels work on these
        contiguous (T,) rows.
        """
        out = np.empty((2, 3, self.triangle_count))
        for rows, x, y in self._corner_blocks():
            block = out[:, :, rows]
            for i in range(3):
                ahead, behind = (i + 2) % 3, (i + 1) % 3
                block[0, i] = -(y[ahead] - y[behind])
                block[1, i] = x[ahead] - x[behind]
            block /= 2.0 * self.areas[rows]
        out.setflags(write=False)
        return out

    @cached_property
    def _edge_data(self):
        """Unique edge ends as (2, E) lo and hi rows, per-triangle edge ids,
        the boundary vertex mask and whether the triangles are
        edge-connected, all from one stable sort of the 3T edge slots by
        key.  The ends and ids take the dtype of ``triangles``.

        Besides the tables it returns, only the keys, the sort order, a flag
        per sorted slot and the triangle pairs of the shared edges span the
        mesh, each dropped once read; every pass works one block of sorted
        slots at a time.
        """
        t = self.triangles
        nv, count = self.vertex_count, self.triangle_count
        tri_edges = np.empty((count, 3), dtype=t.dtype)
        boundary = np.zeros(nv, dtype=bool)
        # edge slot i is opposite corner i; one int64 key lo * V + hi per
        # edge sorts like its (lo, hi) row; exact for V below about 3e9
        keys = np.empty(3 * count, dtype=np.int64)
        for rows in triangle_blocks(count):
            for i in range(3):
                a, b = t[rows, (i + 1) % 3], t[rows, (i + 2) % 3]
                key = keys[3 * rows.start + i:3 * rows.stop:3]
                np.minimum(a, b, out=key)
                key *= nv
                key += np.maximum(a, b)
        order = np.argsort(keys, kind="stable")
        # new[k]: sorted slot k starts a run of equal keys; new[3T] closes
        # the last run
        new = np.empty(len(keys) + 1, dtype=bool)
        new[0] = new[-1] = True
        blocks = [slice(3 * rows.start, 3 * rows.stop)
                  for rows in triangle_blocks(count)]
        for run in blocks:
            # two slots past the block: a run of three starts in it
            ahead = keys[order[run.start:run.stop + 2]]
            if np.any(ahead[2:] == ahead[:-2]):
                raise ValueError("an edge is shared by more than two "
                                 "triangles")
            np.not_equal(ahead[1:], ahead[:-1],
                         out=new[run.start + 1:run.start + len(ahead)])
        edge_count = int(np.count_nonzero(new)) - 1
        ends = np.empty((2, edge_count), dtype=t.dtype)
        first = 0
        for run in blocks:
            starts = new[run]
            ids = np.cumsum(starts, dtype=t.dtype)
            ids += first - 1
            tri_edges.reshape(-1)[order[run]] = ids  # edge id by run
            key = keys[order[run]].compress(starts)  # one key per edge
            block = ends[:, first:first + len(key)]
            lo = key // nv  # numpy divides by a scalar faster than % does
            block[0] = lo
            lo *= nv
            np.subtract(key, lo, out=block[1])
            first += len(key)
            # a run of one slot is an edge of one triangle
            single = np.flatnonzero(starts & new[run.start + 1:run.stop + 1])
            single += run.start
            key = keys[order[single]]
            boundary[key // nv] = True
            boundary[key % nv] = True
        del keys
        # the two slots of each shared edge, as their triangles
        tri_pairs = np.empty((2, len(order) - edge_count), dtype=t.dtype)
        done = 0
        for run in blocks:
            pair = np.flatnonzero(~new[run.start + 1:run.stop + 1])
            pair += run.start
            block = tri_pairs[:, done:done + len(pair)]
            np.floor_divide(order[pair], 3, out=block[0])
            pair += 1
            np.floor_divide(order[pair], 3, out=block[1])
            done += len(pair)
        del order, new, starts  # starts is a view of new
        connected = _edge_connected(tri_pairs[0], tri_pairs[1], count)
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
        for rows in triangle_blocks(self.triangle_count):
            used[self.triangles[rows].astype(np.intp)] = True
        if not used.all():
            raise ValueError("unreferenced vertex")
        if not connected:
            raise ValueError("triangle adjacency graph is disconnected")


def _edge_connected(tri_a, tri_b, count) -> bool:
    """Whether every one of ``count`` triangles reaches triangle 0 across
    the shared edges joining triangles ``tri_a`` and ``tri_b``.

    Union-find in rounds, over blocks of the pairs: each triangle is hooked
    onto the smallest triangle across any of its edges, every hook chain is
    shortcut to its end (a root, which has no smaller neighbour), and the
    next round runs on the roots, renumbered in order, joined by the edges
    between their trees.  The mesh is connected when a round leaves one
    root; triangle 0 is always root 0.  The labels are intp, so that the
    shortcuts gather through them without a cast.
    """
    while True:
        label = np.arange(count)
        blocks = triangle_blocks(len(tri_a))
        for rows in blocks:
            a, b = tri_a[rows], tri_b[rows]
            # values of the labels' dtype keep np.minimum.at on its fast loop
            np.minimum.at(label, np.maximum(a, b),
                          np.minimum(a, b, dtype=label.dtype))
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
        # the edges between two trees, as the labels of their roots
        cut_a, cut_b = [], []
        for rows in blocks:
            la = label[tri_a[rows].astype(np.intp)]
            lb = label[tri_b[rows].astype(np.intp)]
            between = la != lb
            cut_a.append(la[between])
            cut_b.append(lb[between])
        root = label == np.arange(count)
        count = int(np.count_nonzero(root))
        tri_a, tri_b = np.concatenate(cut_a), np.concatenate(cut_b)
        if not len(tri_a):
            return count <= 1
        rank = np.cumsum(root) - 1
        tri_a, tri_b = rank[tri_a], rank[tri_b]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _split_quads(vertex_count: int, corners) -> np.ndarray:
    """Two counterclockwise triangles per quad of a grid, split along
    v00-v11, written straight into the (T, 3) table of the dtype
    ``table_dtype`` picks.

    ``corners`` gives v00, v10, v11 and v01, each as a pair of integer
    arrays (r, c) of lengths R and C: the corner of the quad in grid row i
    and column j is r[i] + c[j].  Quads are taken in row-major order, each
    giving (v00, v10, v11) then (v00, v11, v01).
    """
    rows, cols = len(corners[0][0]), len(corners[0][1])
    count = 2 * rows * cols
    out = np.empty((count, 3), dtype=table_dtype(vertex_count, 3 * count))
    quads = out.reshape(rows, cols, 6)
    for slot, corner in enumerate((0, 1, 2, 0, 2, 3)):
        r, c = corners[corner]
        np.add.outer(r, c, out=quads[:, :, slot])
    return out


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
    grid = np.empty((ny + 1, nx + 1, 2))  # grid point (x_i, y_j) at [j, i]
    grid[:, :, 0] = np.linspace(0.0, length, nx + 1)
    grid[:, :, 1] = np.linspace(0.0, height, ny + 1)[:, None]
    vertices = grid.reshape(-1, 2)

    # vertex index of grid point (x_i, y_j) is j (nx + 1) + i
    row = np.arange(ny + 1) * (nx + 1)
    col = np.arange(nx + 1)
    triangles = _split_quads(len(vertices), [
        (row[:-1], col[:-1]), (row[:-1], col[1:]), (row[1:], col[1:]),
        (row[1:], col[:-1])])

    grid_cls = np.zeros((ny + 1, nx + 1), dtype=np.int8)
    side_rows = {"left": grid_cls[:, 0], "right": grid_cls[:, nx],
                 "bottom": grid_cls[0], "top": grid_cls[ny]}
    # a vertex on a true side is dirichlet, whatever other side it is on
    for name, hit in side_rows.items():
        if name in sides:
            hit[:] = ARTIFICIAL
    for name, hit in side_rows.items():
        if name not in sides:
            hit[:] = DIRICHLET
    cls = grid_cls.reshape(-1)
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
    polar = np.empty((n_r + 1, n_theta, 2))  # ring i, angle j at [i, j]
    np.multiply.outer(radii, np.cos(angles), out=polar[:, :, 0])
    np.multiply.outer(radii, np.sin(angles), out=polar[:, :, 1])
    vertices = polar.reshape(-1, 2)

    # vertex index of ring i, angle j is i n_theta + j; angle n_theta
    # wraps to 0
    ring = np.arange(n_r + 1) * n_theta
    col = np.arange(n_theta)
    ahead = np.roll(col, -1)
    triangles = _split_quads(len(vertices), [
        (ring[:-1], col), (ring[1:], col), (ring[1:], ahead),
        (ring[:-1], ahead)])

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
