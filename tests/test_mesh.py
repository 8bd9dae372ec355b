import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxsurf import (
    ARTIFICIAL,
    DIRICHLET,
    INTERIOR,
    Mesh,
    build_annulus,
    build_rectangle,
    build_strip,
    load_mesh,
    save_mesh,
)
from maxsurf.mesh import TRIANGLE_BLOCK, check_index_range, triangle_blocks


def vertex_at(mesh, x, y):
    d = np.linalg.norm(mesh.vertices - [x, y], axis=1)
    i = int(np.argmin(d))
    assert d[i] < 1e-9, f"no vertex at ({x}, {y})"
    return i


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def test_rectangle_counts_small():
    m = build_rectangle(1.0, 1.0, 0.5)
    assert m.vertex_count == 9
    assert m.triangle_count == 8


def test_rectangle_counts_anisotropic():
    m = build_rectangle(2.0, 1.0, 0.25)
    assert m.vertex_count == 45
    assert m.triangle_count == 64


def test_rectangle_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_rectangle(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        build_rectangle(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_rectangle(1.0, 1.0, -0.5)
    with pytest.raises(ValueError, match="divide"):
        build_rectangle(1.0, 1.0, 0.3)


@pytest.mark.parametrize("build", [
    lambda: build_rectangle(1e308, 1.0, 0.25),
    lambda: build_rectangle(1.0, 1.0, 1e-320),
    lambda: build_strip(4.0, 4.0, 1e-320),
    lambda: build_annulus(1.0, 1e308, 0.25),
    lambda: build_annulus(1.0, 2.0, 1e-320),
    lambda: build_annulus(3e307, 3.1e307, 1e306),
], ids=["rect-extent", "rect-h", "strip-h", "annulus-extent", "annulus-h",
        "annulus-circumference"])
def test_builders_refuse_a_division_count_that_overflows(build):
    with pytest.raises(ValueError, match="no finite division count"):
        build()


def test_rectangle_boundary_all_dirichlet_by_default():
    m = build_rectangle(1.0, 1.0, 0.25)
    on_boundary = m.boundary_vertex_mask
    assert np.all(m.vertex_class[on_boundary] == DIRICHLET)
    assert np.all(m.vertex_class[~on_boundary] == INTERIOR)


def test_rectangle_artificial_side_keeps_corners_dirichlet():
    m = build_rectangle(1.0, 1.0, 0.25, artificial_sides=("left",))
    assert m.vertex_class[vertex_at(m, 0.0, 0.0)] == DIRICHLET
    assert m.vertex_class[vertex_at(m, 0.0, 1.0)] == DIRICHLET
    assert m.vertex_class[vertex_at(m, 0.0, 0.5)] == ARTIFICIAL


def test_strip_end_classing():
    m = build_strip(8.0, 1.0, 0.25)
    assert m.vertex_class[vertex_at(m, 0.0, 0.5)] == ARTIFICIAL
    assert m.vertex_class[vertex_at(m, 8.0, 0.5)] == ARTIFICIAL
    # corners sit on the long sides, which are the true boundary
    assert m.vertex_class[vertex_at(m, 0.0, 0.0)] == DIRICHLET
    assert m.vertex_class[vertex_at(m, 8.0, 1.0)] == DIRICHLET


def test_strip_h_too_large():
    with pytest.raises(ValueError):
        build_strip(8.0, 1.0, 9.0)


def test_annulus_ring_counts_match():
    # round(2 pi r_outer / h) angular divisions on every ring
    m = build_annulus(1.0, 2.0, 0.25)
    r = np.linalg.norm(m.vertices, axis=1)
    assert np.count_nonzero(np.abs(r - 1.0) < 1e-9) == 50
    assert np.count_nonzero(np.abs(r - 2.0) < 1e-9) == 50
    assert np.all(m.vertex_class[np.abs(r - 1.0) < 1e-9] == DIRICHLET)


def test_annulus_positive_areas_and_euler():
    m = build_annulus(1.0, 2.0, 0.1)
    assert np.all(m.areas > 0)
    assert m.euler_characteristic == 0


def test_annulus_rejects_bad_radii():
    with pytest.raises(ValueError):
        build_annulus(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_annulus(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_annulus(-1.0, 2.0, 0.1)


def test_annulus_artificial_rings():
    m = build_annulus(1.0, 2.0, 0.25, artificial_rings=("outer",))
    r = np.linalg.norm(m.vertices, axis=1)
    assert np.all(m.vertex_class[np.abs(r - 2.0) < 1e-9] == ARTIFICIAL)
    assert np.all(m.vertex_class[np.abs(r - 1.0) < 1e-9] == DIRICHLET)


def test_rectangle_euler_is_one(square4):
    assert square4.euler_characteristic == 1


def test_two_triangle_square_geometry():
    m = build_rectangle(1.0, 1.0, 1.0)
    np.testing.assert_allclose(m.areas, [0.5, 0.5])
    assert m.total_area == pytest.approx(1.0, abs=1e-15)


def test_center_vertex_star(square4):
    center = vertex_at(square4, 0.5, 0.5)
    assert np.count_nonzero(np.any(square4.triangles == center, axis=1)) == 6


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def unit_tri_mesh():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0, 1, 2]])
    c = np.array([DIRICHLET, DIRICHLET, DIRICHLET], dtype=np.int8)
    return v, t, c


def test_clockwise_triangle_rejected():
    v, t, c = unit_tri_mesh()
    with pytest.raises(ValueError, match="clockwise"):
        Mesh(v, t[:, ::-1], c, h=1.0)


def test_interior_class_on_boundary_rejected():
    v, t, c = unit_tri_mesh()
    bad = c.copy()
    bad[0] = INTERIOR
    with pytest.raises(ValueError, match="boundary vertex"):
        Mesh(v, t, bad, h=1.0)


def test_unreferenced_vertex_rejected():
    v, t, c = unit_tri_mesh()
    v = np.vstack([v, [5.0, 5.0]])
    c = np.append(c, INTERIOR).astype(np.int8)
    with pytest.raises(ValueError, match="unreferenced"):
        Mesh(v, t, c, h=1.0)


def test_overshared_edge_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [0.2, 0.8]])
    t = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    c = np.full(5, DIRICHLET, dtype=np.int8)
    with pytest.raises(ValueError, match="more than two"):
        Mesh(v, t, c, h=1.0)


def test_bowtie_rejected():
    # two triangles joined at one vertex only: adjacency graph falls apart
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    t = np.array([[0, 1, 2], [0, 3, 4]])
    c = np.full(5, DIRICHLET, dtype=np.int8)
    with pytest.raises(ValueError, match="disconnected"):
        Mesh(v, t, c, h=1.0)


@pytest.mark.parametrize("build", [
    lambda: build_rectangle(1e155, 1e155, 1e154),
    lambda: build_rectangle(1e200, 1e200, 1e199),
    lambda: build_annulus(1e154, 1e155, 2e154),
    lambda: Mesh(1e200 * unit_tri_mesh()[0], *unit_tri_mesh()[1:], h=1.0),
    lambda: Mesh(1.5e154 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                     [0.0, 1.0]]), [[0, 1, 2], [0, 2, 3]],
                 [DIRICHLET] * 4, h=1.0),
], ids=["rect-sum", "rect-areas", "annulus", "triangle", "square-sum"])
def test_mesh_whose_area_overflows_refused(build):
    # finite areas whose sum overflows, and areas that overflow themselves:
    # one message and no RuntimeWarning (which this suite makes an error)
    with pytest.raises(ValueError, match="area overflows the float range"):
        build()


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
def test_mesh_refuses_an_h_that_is_not_finite_and_positive(h):
    v, t, c = unit_tri_mesh()
    with pytest.raises(ValueError, match=f"h = {h} is not finite and "
                       "positive"):
        Mesh(v, t, c, h)


@settings(max_examples=60, deadline=None)
@given(h=st.floats() | st.integers(-2, 2), scale=st.floats(1e-150, 1e150))
def test_every_mesh_save_mesh_writes_loads_back(tmp_path_factory, h, scale):
    v, t, c = unit_tri_mesh()
    try:
        mesh = Mesh(scale * v, t, c, h)
    except ValueError:
        assert not 0 < h < np.inf
        return
    path = tmp_path_factory.mktemp("mesh") / "m.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    np.testing.assert_array_equal(back.vertex_class, mesh.vertex_class)
    assert back.h == mesh.h


def overshared_mesh():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [0.2, 0.8]])
    t = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    return v, t, np.full(5, DIRICHLET, dtype=np.int8)


def bowtie_mesh():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    t = np.array([[0, 1, 2], [0, 3, 4]])
    return v, t, np.full(5, DIRICHLET, dtype=np.int8)


def with_vertex(mesh, cls):
    """The mesh with one more vertex, referenced by no triangle."""
    v, t, c = mesh
    return np.vstack([v, [9.0, 9.0]]), t, np.append(c, cls).astype(np.int8)


def bad_meshes():
    """(mesh, message) pairs: each mesh breaks the named check and every
    check after it, so the message shows the order the checks run in."""
    grid = build_rectangle(1.0, 1.0, 0.25)
    v, t, c = grid.vertices, grid.triangles, grid.vertex_class
    interior = int(grid.interior_vertices[0])
    corner = int(np.flatnonzero(c == DIRICHLET)[0])
    # a third triangle on an interior edge, and a grid beside the first
    extra = np.vstack([v, [[0.3, 0.3]]]), np.vstack([t, [[*t[8, :2], len(v)]]])
    apart = (np.vstack([v, v + [2.0, 0.0]]), np.vstack([t, t + len(v)]),
             np.concatenate([c, c]))
    clockwise = with_vertex(overshared_mesh(), INTERIOR)
    return [
        ((clockwise[0], clockwise[1][:, ::-1], clockwise[2]),
         "triangle 0 is degenerate or clockwise"),
        (with_vertex(overshared_mesh(), INTERIOR), "more than two"),
        ((*extra, np.append(c, INTERIOR).astype(np.int8)), "more than two"),
        (with_vertex((v, t, np.where(np.arange(len(c)) == interior,
                                     DIRICHLET, c)), INTERIOR),
         "non-interior class assigned to an interior vertex"),
        (with_vertex((v, t, np.where(np.arange(len(c)) == corner,
                                     INTERIOR, c)), INTERIOR),
         "boundary vertex classed interior"),
        (with_vertex(bowtie_mesh(), INTERIOR), "unreferenced vertex"),
        (bowtie_mesh(), "disconnected"),
        (apart, "disconnected"),
    ]


@pytest.mark.parametrize("block", [1, 2, 7, TRIANGLE_BLOCK])
def test_checks_keep_their_messages_and_order_at_any_block(monkeypatch,
                                                           block):
    monkeypatch.setattr("maxsurf.mesh.TRIANGLE_BLOCK", block)
    for (v, t, c), message in bad_meshes():
        with pytest.raises(ValueError, match=message):
            Mesh(v, t, c, h=1.0)


@pytest.mark.parametrize("cls,message", [
    ([DIRICHLET, 1.7, DIRICHLET], "unknown vertex class"),   # not 1
    ([DIRICHLET, 258, DIRICHLET], "unknown vertex class"),   # not 258 % 256
])
def test_vertex_class_checked_before_cast(cls, message):
    v, t, _ = unit_tri_mesh()
    with pytest.raises(ValueError, match=message):
        Mesh(v, t, np.array(cls), h=1.0)


@pytest.mark.parametrize("tris,message", [
    ([[0.4, 1, 2]], "must be integers"),     # not 0
    ([[0, 1, np.nan]], "must be integers"),
    ([[0, 1, 1e30]], "out of range"),
    ([[0, 1, 3]], "out of range"),
])
def test_triangle_indices_checked_before_cast(tris, message):
    v, _, c = unit_tri_mesh()
    with pytest.raises(ValueError, match=message):
        Mesh(v, np.array(tris), c, h=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    # a nan corner makes its triangles' signed areas nan, which the
    # degenerate-triangle test (area <= 0) lets through
    mesh = build_rectangle(1.0, 1.0, 0.5)
    v = mesh.vertices.copy()
    v[4, 0] = bad
    assert np.any(mesh.triangles == 4)
    with pytest.raises(ValueError, match="vertex coordinates must be finite"):
        Mesh(v, mesh.triangles, mesh.vertex_class, mesh.h)


def test_integral_float_inputs_accepted():
    v, t, c = unit_tri_mesh()
    mesh = Mesh(v, t.astype(float), c.astype(float), h=1.0)
    assert mesh.triangles.dtype == np.int32
    assert mesh.vertex_class.dtype == np.int8
    np.testing.assert_array_equal(mesh.triangles, t)


@pytest.mark.parametrize("make", [
    lambda path: build_rectangle(1.0, 1.0, 0.25),
    lambda path: build_annulus(1.0, 2.0, 0.25),
    lambda path: load_mesh(path),
])
def test_neighbor_table_built_on_every_read_and_not_kept(tmp_path, make):
    # the potential's tree reads it once per mesh, so a kept table would
    # only hold (T, 3) int64 for the mesh's lifetime
    save_mesh(build_rectangle(1.0, 1.0, 0.25), tmp_path / "m.txt")
    mesh = make(tmp_path / "m.txt")
    table = mesh.neighbors
    assert table.shape == (mesh.triangle_count, 3)
    assert not table.flags.writeable
    again = mesh.neighbors
    assert again is not table and np.array_equal(again, table)
    assert "neighbors" not in mesh.__dict__
    # across each slot lies the other triangle of the slot's edge
    ids = mesh.triangle_edges
    tri, slot = np.nonzero(table >= 0)
    across = table[tri, slot]
    assert (ids[across] == ids[tri, slot][:, None]).sum(axis=1).tolist() \
        == [1] * len(tri)
    boundary = np.bincount(ids.ravel()) == 1
    np.testing.assert_array_equal(table < 0, boundary[ids])


def test_mesh_arrays_frozen(square4):
    assert not square4.vertices.flags.writeable
    with pytest.raises(ValueError):
        square4.triangles[0, 0] = 5


@pytest.mark.parametrize("frozen", [False, True])
def test_index_tables_are_read_only(frozen):
    ref = build_rectangle(1.0, 1.0, 0.25)
    triangles = ref.triangles.copy()
    triangles.setflags(write=not frozen)
    mesh = Mesh(ref.vertices, triangles, ref.vertex_class, ref.h)
    # the mesh keeps its own copy; the caller's array is left as it was
    assert triangles.flags.writeable != frozen
    assert not np.shares_memory(triangles, mesh.triangles)
    # the edge ends are stored as contiguous lo and hi rows
    assert mesh.edges.T.flags.c_contiguous
    for table in (mesh.triangles, mesh.triangle_edges, mesh.edges.T):
        assert table.dtype == np.int32 and table.flags.c_contiguous
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 5


def test_index_range_check_refuses_2_to_the_31():
    # counts only; no array of that size is built
    check_index_range(2**31 - 1, "slots")
    with pytest.raises(ValueError, match=r"^slots: 2147483648 index slots, "
                       r"past the int32 range \(2\*\*31\)$"):
        check_index_range(2**31, "slots")


@pytest.mark.parametrize("build,message", [
    # V + 6T = 65537**2 + 12 * 65536**2 slots
    (lambda: build_rectangle(1.0, 1.0, 2**-16),
     "the mesh of a 65536 x 65536 grid: 55834705921 index slots"),
    (lambda: build_annulus(1.0, 2.0, 1e-5),
     "the mesh of a 100000 x 1256637 polar grid"),
])
def test_grid_past_the_int32_range_refused_before_allocating(build, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("count,block,expected", [
    (0, 4, [(0, 0)]),
    (3, 4, [(0, 3)]),
    (4, 4, [(0, 4)]),
    (9, 4, [(0, 4), (4, 8), (8, 9)]),
])
def test_triangle_blocks_tile_the_rows_in_order(monkeypatch, count, block,
                                                expected):
    monkeypatch.setattr("maxsurf.mesh.TRIANGLE_BLOCK", block)
    assert [(s.start, s.stop) for s in triangle_blocks(count)] == expected


@pytest.mark.parametrize("source,peak_per_triangle", [
    # whole-array builds peaked at 259 bytes per triangle either way
    ("generated", 134),  # 128 here; 140 with an int64 generator table
    ("loaded", 165),     # 152: the file's int64 triangle lines stay held
])
def test_mesh_build_peak_per_triangle(tmp_path, source, peak_per_triangle):
    # a mesh keeps 53 bytes per triangle: vertices and classes, triangles,
    # areas, edge ends, edge ids and the boundary mask
    path = tmp_path / "m.txt"
    save_mesh(build_annulus(1.0, 4.0, 0.05), path)
    tracemalloc.start()
    if source == "generated":
        mesh = build_annulus(1.0, 4.0, 0.05, artificial_rings=["outer"])
    else:
        mesh = load_mesh(path)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert mesh.triangle_count == 60_360
    assert kept <= 56 * mesh.triangle_count
    assert peak <= peak_per_triangle * mesh.triangle_count


@pytest.mark.parametrize("name,kept_per_triangle,peak_per_triangle", [
    # 32 and 64 bytes per triangle at the peak here, most of it one
    # block's gathers; whole-array builds peaked at 40 and 104
    ("centroids", 16, 36),
    ("basis_columns", 48, 70),
])
def test_per_triangle_array_peak_per_triangle(name, kept_per_triangle,
                                              peak_per_triangle):
    mesh = build_annulus(1.0, 4.0, 0.05)
    tracemalloc.start()
    getattr(mesh, name)  # built on first read and kept
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert kept <= kept_per_triangle * mesh.triangle_count + 4096
    assert peak <= peak_per_triangle * mesh.triangle_count


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_mesh_round_trip(tmp_path, annulus_coarse):
    path = tmp_path / "m.txt"
    save_mesh(annulus_coarse, path)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.vertices, annulus_coarse.vertices)
    np.testing.assert_array_equal(back.triangles, annulus_coarse.triangles)
    np.testing.assert_array_equal(back.vertex_class, annulus_coarse.vertex_class)
    assert back.h == annulus_coarse.h


def test_load_mesh_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n")
    with pytest.raises(ValueError, match="header"):
        load_mesh(path)


MESH_TEXT = "4 2 1\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n0 2 3\n"


def test_load_mesh_small_text(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT)
    mesh = load_mesh(path)
    assert mesh.vertex_count == 4 and mesh.triangle_count == 2


@pytest.mark.parametrize("text", [
    "4 2 1\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n",   # a triangle short
    "4 2 1\n0 0 1\n1 0 1\n1 1 1\n0 1 2\n0 2 3\n",   # a vertex short
    "4 2 1\n0 0 1\n1 0 1\n",                         # cut in the vertices
    "4 2 1\n",                                        # header only
    MESH_TEXT + "0 1 3\n",                           # a triangle uncounted
    MESH_TEXT + "garbage\n",                         # text after the lines
])
def test_load_mesh_truncated(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_mesh(path)


def test_load_mesh_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT + "\n  \n\n")
    assert load_mesh(path).triangle_count == 2


@pytest.mark.parametrize("old,new", [
    ("1 0 1\n", "1 0\n"),          # vertex line short
    ("1 0 1\n", "1 0 1 7\n"),      # vertex line long
    ("1 1 1\n", "1 x 1\n"),        # non-numeric coordinate
    ("1 1 1\n", "1 1 1.5\n"),      # fractional class
    ("1 1 1\n", "1 1 9\n"),        # unknown class
    ("1 1 1\n", "1 nan 1\n"),      # non-finite coordinate
    ("0 1 2\n", "0 1\n"),          # triangle line short
    ("0 2 3\n", "0 2 3.0\n"),      # non-integer index
    ("0 2 3\n", "# 2 3\n"),        # '#' is not a comment
])
def test_load_mesh_bad_lines(tmp_path, old, new):
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.replace(old, new, 1))
    with pytest.raises(ValueError):
        load_mesh(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_mesh_names_a_non_finite_coordinate(tmp_path, value):
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.replace("1 1 1\n", f"1 {value} 1\n", 1))
    with pytest.raises(ValueError, match="mesh vertex lines: non-finite"):
        load_mesh(path)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_load_mesh_rejects_a_header_h_that_is_not_positive(tmp_path, value):
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.replace("4 2 1\n", f"4 2 {value}\n", 1))
    with pytest.raises(ValueError, match=f"bad mesh header: h = {value} is "
                       "not finite and positive"):
        load_mesh(path)


@pytest.mark.parametrize("header", ["99999999999999999999 2 1",
                                    f"4 {2**63} 1"])
def test_load_mesh_refuses_counts_of_2_to_the_63(tmp_path, header):
    # no file holds 6 bytes for each of 2**63 lines
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.replace("4 2 1", header, 1))
    nv, nt = header.split()[:2]
    with pytest.raises(ValueError, match=f"bad mesh header: {nv} vertex and "
                       f"{nt} triangle lines do not fit in the "):
        load_mesh(path)


def test_load_mesh_refuses_counts_past_the_int32_range(tmp_path):
    # 3 GiB hold the 6 (4 + 4e8) - 1 bytes the header's lines need at
    # least, but V + 6T = 2,400,000,004 index slots reach 2**31; the
    # file is sparse, and no line is read
    path = tmp_path / "m.txt"
    path.write_text("4 400000000 1\n")
    os.truncate(path, 3 * 2**30)
    with pytest.raises(ValueError, match="bad mesh header: 4 vertex and "
                       "400000000 triangle lines: 2400000004 index slots, "
                       "past the int32 range"):
        load_mesh(path)


def test_load_mesh_refuses_counts_the_file_cannot_hold(tmp_path):
    # 6 bytes a line, 5 for the last: 35 bytes hold 6 lines and not 7
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.rstrip("\n"))
    assert load_mesh(path).triangle_count == 2
    path.write_text(MESH_TEXT.replace("4 2 1", "4 3 1", 1).rstrip("\n"))
    with pytest.raises(ValueError, match="bad mesh header: 4 vertex and 3 "
                       "triangle lines do not fit in the 41-byte file"):
        load_mesh(path)


def test_load_mesh_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_mesh(tmp_path / "nope.txt")
