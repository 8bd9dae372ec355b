import numpy as np
import pytest

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
from maxsurf.mesh import _writeable


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
    assert mesh.triangles.dtype == np.int64
    assert mesh.vertex_class.dtype == np.int8
    np.testing.assert_array_equal(mesh.triangles, t)


@pytest.mark.parametrize("make", [
    lambda path: build_rectangle(1.0, 1.0, 0.25),
    lambda path: build_annulus(1.0, 2.0, 0.25),
    lambda path: load_mesh(path),
])
def test_neighbor_table_built_on_first_read(tmp_path, make):
    save_mesh(build_rectangle(1.0, 1.0, 0.25), tmp_path / "m.txt")
    mesh = make(tmp_path / "m.txt")
    assert "neighbors" not in mesh.__dict__
    table = mesh.neighbors
    assert mesh.neighbors is table and not table.flags.writeable
    assert table.shape == (mesh.triangle_count, 3)


def test_mesh_arrays_frozen(square4):
    assert not square4.vertices.flags.writeable
    with pytest.raises(ValueError):
        square4.triangles[0, 0] = 5


@pytest.mark.parametrize("frozen", [False, True])
def test_index_tables_are_read_only_views_of_writeable_memory(frozen):
    ref = build_rectangle(1.0, 1.0, 0.25)
    triangles = ref.triangles.copy()
    triangles.setflags(write=not frozen)
    mesh = Mesh(ref.vertices, triangles, ref.vertex_class, ref.h)
    # the caller's array is not frozen by the mesh; a frozen one is copied
    assert triangles.flags.writeable != frozen
    assert np.shares_memory(triangles, mesh.triangles) != frozen
    for table in (mesh.triangles, mesh.triangle_edges):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 5
        # np.bincount copies a read-only index array; the solver passes a
        # writeable view of the same memory instead of a copy
        view = _writeable(table)
        assert view.flags.writeable and np.shares_memory(view, table)


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
    path = tmp_path / "m.txt"
    path.write_text(MESH_TEXT.replace("4 2 1", header, 1))
    counts = " and ".join(header.split()[:2])
    with pytest.raises(ValueError, match=f"bad mesh header: counts {counts} "
                       r"must be below 2\*\*63"):
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
