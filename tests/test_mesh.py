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
    m = build_annulus(1.0, 2.0, 0.25, n_theta=8)
    r = np.linalg.norm(m.vertices, axis=1)
    assert np.count_nonzero(np.abs(r - 1.0) < 1e-9) == 8
    assert np.count_nonzero(np.abs(r - 2.0) < 1e-9) == 8
    assert np.all(m.vertex_class[np.abs(r - 1.0) < 1e-9] == DIRICHLET)


def test_annulus_positive_areas_and_euler():
    m = build_annulus(1.0, 2.0, 0.1)
    assert np.all(m.signed_areas > 0)
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


def test_mesh_arrays_frozen(square4):
    assert not square4.vertices.flags.writeable
    with pytest.raises(ValueError):
        square4.triangles[0, 0] = 5


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
])
def test_load_mesh_truncated(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_mesh(path)


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


def test_load_mesh_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_mesh(tmp_path / "nope.txt")
