"""Command line behavior: flags, files, exit codes, determinism."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maxsurf
from maxsurf import (
    ARTIFICIAL,
    SolverConfig,
    build_annulus,
    save_field,
    save_mesh,
    solve,
)
from maxsurf import cli as cli_module
from maxsurf.cli import main
from maxsurf.expressions import MAX_DEPTH
from maxsurf.records import fmt
from maxsurf.solver import TRACE_HEADER

from conftest import nan_coordinate_field, read_record
from oracles import gradient_margin


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_solution_and_report(tmp_path):
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.125",
               "--bc", "0.3*sin(2*x)*y", "--out", "a"])
    assert rc == 0
    report = read_record(tmp_path / "a_report.txt")
    assert report["converged"] == "1"
    assert (tmp_path / "a_solution.csv").exists()


def test_solve_is_deterministic(tmp_path):
    argv = ["solve", "--shape", "rect:1x1", "--h", "0.125",
            "--bc", "0.3*sin(2*x)*y"]
    assert main(argv + ["--out", "first"]) == 0
    assert main(argv + ["--out", "second"]) == 0
    assert ((tmp_path / "first_solution.csv").read_bytes()
            == (tmp_path / "second_solution.csv").read_bytes())
    assert ((tmp_path / "first_report.txt").read_bytes()
            == (tmp_path / "second_report.txt").read_bytes())


def test_solve_accepts_field_file_bc(tmp_path, square4):
    bc = 0.2 * square4.vertices[:, 0]
    save_field(square4, bc, tmp_path / "bc.csv")
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.25",
               "--bc", "@bc.csv", "--out", "f"])
    assert rc == 0


@pytest.mark.parametrize("column", ["x", "y"])
def test_solve_rejects_nan_field_coordinates(capsys, tmp_path, square4,
                                             column):
    nan_coordinate_field(tmp_path / "bc.csv", square4, column)
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.25",
               "--bc", "@bc.csv", "--out", "f"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: field coordinates do not match the mesh\n"


def test_solve_accepts_mesh_file(tmp_path, square4):
    save_mesh(square4, tmp_path / "m.csv")
    rc = main(["solve", "--mesh", "m.csv", "--bc", "0.4*x", "--out", "g"])
    assert rc == 0
    assert read_record(tmp_path / "g_report.txt")["iterations"] <= "2"


def test_solve_mesh_flag_conflicts(capsys, tmp_path, square4):
    save_mesh(square4, tmp_path / "m.csv")
    assert main(["solve", "--mesh", "m.csv", "--shape", "rect:1x1",
                 "--h", "0.5", "--bc", "0"]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(["solve", "--bc", "0"]) == 1
    assert main(["solve", "--shape", "rect:1x1", "--bc", "0"]) == 1
    assert "--h" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    # two triangles with no vertex in common
    ("6 2 1\n0 0 1\n1 0 1\n0 1 1\n3 0 1\n4 0 1\n3 1 1\n0 1 2\n3 4 5\n",
     "triangle adjacency graph is disconnected"),
    # edge 0-1 in three triangles
    ("5 3 1\n0 0 1\n1 0 1\n0 1 1\n0.5 -1 1\n0.2 0.8 1\n0 1 2\n1 0 3\n0 1 4\n",
     "an edge is shared by more than two triangles"),
])
def test_solve_bad_topology_mesh_is_one_error_line(capsys, tmp_path, text,
                                                   message):
    (tmp_path / "m.txt").write_text(text)
    rc = main(["solve", "--mesh", "m.txt", "--bc", "0.4*x", "--out", "g"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_solve_mesh_header_h_is_one_error_line(capsys, tmp_path, value):
    (tmp_path / "m.txt").write_text(
        f"4 2 {value}\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n0 2 3\n")
    rc = main(["solve", "--mesh", "m.txt", "--bc", "0.4*x", "--out", "g"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: bad mesh header: h = {value} is not finite and positive\n")


def test_solve_rejects_bad_expressions(capsys):
    base = ["solve", "--shape", "rect:1x1", "--h", "0.25"]
    assert main(base + ["--bc", "sin("]) == 1
    assert "bad expression" in capsys.readouterr().err
    assert main(base + ["--bc", "q*x"]) == 1
    # 1/x blows up on the x = 0 edge
    assert main(base + ["--bc", "1/x"]) == 1
    assert "not finite" in capsys.readouterr().err


SOLVE_SQUARE = ["solve", "--shape", "rect:1x1", "--h", "0.25"]


@pytest.mark.parametrize("argv, message", [
    (SOLVE_SQUARE + ["--bc=2^2^2^2^2"], "not finite on the boundary"),
    (SOLVE_SQUARE + ["--bc=1/0"], "not finite on the boundary"),
    (SOLVE_SQUARE + ["--bc=(-8)^(1/3)+0*x"], "not finite on the boundary"),
    (SOLVE_SQUARE + ["--bc=" + "+".join(["x"] * 5000)], "nested deeper"),
    (SOLVE_SQUARE + ["--bc=" + "-" * 3000 + "x"], "nested deeper"),
    (["decay", "--lengths", "2,4", "--s", "1", "--h", "0.5", "--phi", "1/0"],
     "expression '1/0' is not finite on the boundary"),
], ids=["overflow", "division-by-zero", "complex-power", "long-sum",
        "unary-chain", "decay-phi-division-by-zero"])
def test_expression_failures_are_one_line_errors(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert message in err


def test_solve_ignores_the_bc_at_interior_vertices(tmp_path):
    # the expression is infinite only at the interior vertex (0.5, 0.5)
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.1", "--metric",
               "euclid", "--bc", "1/((x-0.5)^2+(y-0.5)^2)", "--out", "pole"])
    assert rc == 0
    assert read_record(tmp_path / "pole_report.txt")["converged"] == "1"


@pytest.mark.parametrize("shape", ["rect:1x1", "annulus:1:2"])
def test_unknown_artificial_part_is_one_line_error(capsys, shape):
    assert main(["solve", "--shape", shape, "--h", "0.25", "--bc", "0",
                 "--artificial", "foo"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert "'foo'" in err


def test_expression_depth_bound(capsys):
    zeros = "+".join(["0"] * MAX_DEPTH)
    assert main(SOLVE_SQUARE + ["--bc", zeros]) == 0
    assert main(SOLVE_SQUARE + ["--bc", zeros + "+0"]) == 1
    assert "nested deeper" in capsys.readouterr().err


def test_solve_nonconvergence_exit(capsys, tmp_path):
    # a boundary slope of 2 cannot bound a spacelike graph
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.25",
               "--bc", "2*x", "--out", "bad"])
    assert rc == 2
    assert "not converged" in capsys.readouterr().err
    assert read_record(tmp_path / "bad_report.txt")["converged"] == "0"
    # --max-newton reaches the solver: one step is too few for this data
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.125",
               "--bc", "0.3*sin(2*x)*sin(2*y)", "--max-newton", "1",
               "--out", "t"])
    assert rc == 2
    assert "max_newton exceeded" in capsys.readouterr().err


def test_solve_failed_start_traces_its_step_zero_row(capsys, tmp_path):
    # the rectangle of the square16-affine case in test_solver
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.0625",
               "--bc", "2*x", "--trace", "--out", "bad"])
    assert rc == 2
    assert "no spacelike initial guess" in capsys.readouterr().err
    [row] = read_trace(tmp_path / "bad_trace.csv")
    assert (row["solve"], row["step"], row["cycle"]) == ("1", "0", "none")
    report = read_record(tmp_path / "bad_report.txt")
    check_trace_rows([row], report)
    assert report["residual"] == report["energy"] == "nan"


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 93.6 GiB for an array")

    monkeypatch.setattr("maxsurf.cli.build_annulus", refuse)
    rc = main(["solve", "--shape", "annulus:1:2", "--h", "1e-9", "--bc", "x",
               "--out", "o"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to"), err
    assert "Traceback" not in err


def test_shape_parsing_errors(capsys):
    checks = [
        ["solve", "--shape", "disk:1", "--h", "0.25", "--bc", "0"],
        ["solve", "--shape", "rect:1", "--h", "0.25", "--bc", "0"],
        ["solve", "--shape", "annulus:2", "--h", "0.25", "--bc", "0"],
        ["solve", "--shape", "rect:1x1", "--h", "0.25", "--bc", "0",
         "--artificial", "diagonal"],
        ["solve", "--shape", "strip:2x1", "--h", "0.25", "--bc", "0",
         "--artificial", "left"],
        ["solve", "--shape", "annulus:1:2", "--h", "0.25", "--bc", "0",
         "--artificial", "rim"],
        ["solve", "--shape", "rect:0x1", "--h", "0.25", "--bc", "0"],
    ]
    for argv in checks:
        assert main(argv) == 1, argv
    capsys.readouterr()


# ---------------------------------------------------------------------------
# lemma


def test_lemma_writes_report(capsys, tmp_path):
    rc = main(["lemma", "--eps", "0.4", "--samples", "2000", "--seed", "3",
               "--out", "l"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations=0" in out
    report = read_record(tmp_path / "l_lemma.txt")
    assert report["n_samples"] == "2000"
    assert float(report["C"]) == pytest.approx(0.512)


def test_lemma_names_its_violations(capsys, tmp_path, monkeypatch):
    real = cli_module.sample_coercivity

    def violated(*args, **kwargs):
        return replace(real(*args, **kwargs), violations=3)

    monkeypatch.setattr(cli_module, "sample_coercivity", violated)
    rc = main(["lemma", "--eps", "0.4", "--samples", "100", "--out", "l"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "violations=3" in captured.out
    assert captured.err == "3 coercivity violations\n"
    assert read_record(tmp_path / "l_lemma.txt")["violations"] == "3"


def test_lemma_rejects_bad_margin(capsys):
    assert main(["lemma", "--eps", "1.5", "--samples", "10"]) == 1
    assert main(["lemma", "--eps", "0", "--samples", "10"]) == 1
    capsys.readouterr()


def test_lemma_is_deterministic(tmp_path):
    argv = ["lemma", "--eps", "0.3", "--samples", "5000", "--seed", "11"]
    assert main(argv + ["--out", "p"]) == 0
    assert main(argv + ["--out", "q"]) == 0
    assert ((tmp_path / "p_lemma.txt").read_bytes()
            == (tmp_path / "q_lemma.txt").read_bytes())


# ---------------------------------------------------------------------------
# dualize


def test_dualize_round_trip(capsys, tmp_path):
    assert main(["solve", "--shape", "rect:1x1", "--h", "0.125",
                 "--metric", "euclid", "--bc", "x^2-y^2", "--out", "u"]) == 0
    rc = main(["dualize", "--shape", "rect:1x1", "--h", "0.125",
               "--in", "u_solution.csv", "--direction", "min2max",
               "--out", "d"])
    assert rc == 0
    assert (tmp_path / "d_conjugate.csv").exists()
    report = read_record(tmp_path / "d_roundtrip.txt")
    assert report["direction"] == "min2max"
    assert float(report["round_trip_error"]) < 0.1
    capsys.readouterr()


def test_dualize_rejects_nonsolution(capsys, tmp_path, square4):
    x, y = square4.vertices.T
    save_field(square4, 0.2 * np.sin(3.0 * x) * np.cos(2.0 * y),
               tmp_path / "junk.csv")
    rc = main(["dualize", "--shape", "rect:1x1", "--h", "0.25",
               "--in", "junk.csv", "--direction", "min2max"])
    assert rc == 1
    assert "not closed" in capsys.readouterr().err


def test_dualize_rejects_annulus(capsys, tmp_path, annulus_coarse):
    save_field(annulus_coarse, 0.1 * annulus_coarse.vertices[:, 0],
               tmp_path / "ring.csv")
    rc = main(["dualize", "--shape", "annulus:1:2", "--h", "0.1",
               "--in", "ring.csv", "--direction", "max2min"])
    assert rc == 1
    assert "simply connected" in capsys.readouterr().err


def test_dualize_truncated_mesh_is_one_error_line(capsys, tmp_path, square4):
    save_mesh(square4, tmp_path / "m.txt")
    save_field(square4, 0.1 * square4.vertices[:, 0], tmp_path / "f.csv")
    lines = (tmp_path / "m.txt").read_text().splitlines(keepends=True)
    (tmp_path / "m.txt").write_text("".join(lines[:-3]))
    rc = main(["dualize", "--mesh", "m.txt", "--in", "f.csv",
               "--direction", "max2min"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_dualize_fractional_vertex_ids_is_one_error_line(capsys, tmp_path,
                                                         square4):
    save_field(square4, 0.1 * square4.vertices[:, 0], tmp_path / "f.csv")
    header, *lines = read_lines(tmp_path / "f.csv")
    (tmp_path / "f.csv").write_text("\n".join(
        [header] + [f"{k}.7,{line.split(',', 1)[1]}"
                    for k, line in enumerate(lines)]) + "\n")
    rc = main(["dualize", "--shape", "rect:1x1", "--h", "0.25",
               "--in", "f.csv", "--direction", "max2min"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "vertex ids" in err


# ---------------------------------------------------------------------------
# uniqueness


UNIQ = ["uniqueness", "--shape", "annulus:1:4", "--h", "0.2",
        "--artificial", "outer"]


def test_uniqueness_inline_solves(capsys, tmp_path):
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                      "--out", "u"])
    assert rc == 0
    for suffix in ("_scan.csv", "_ode.csv", "_verdict.txt"):
        assert (tmp_path / f"u{suffix}").exists()
    verdict = read_record(tmp_path / "u_verdict.txt")
    assert verdict["n_flagged"] == "0"
    assert verdict["regime"] in ("truncated", "blowup_reached")
    capsys.readouterr()


def test_uniqueness_names_its_flagged_radii(capsys, tmp_path, monkeypatch):
    real = cli_module.flux_scan

    def flagged(*args, **kwargs):
        scan = real(*args, **kwargs)
        flags = np.zeros(len(scan.radii), dtype=bool)
        flags[:2] = True
        return replace(scan, flags=flags)

    monkeypatch.setattr(cli_module, "flux_scan", flagged)
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                      "--radii", "2.5,2.75,3,3.25,3.5,3.75", "--out", "u"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "n_flagged=2" in captured.out
    assert captured.err == "2 of 6 radii break the flux inequality\n"
    assert read_record(tmp_path / "u_verdict.txt")["n_flagged"] == "2"


def test_uniqueness_identical_fields_empty_region(capsys, tmp_path):
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "0",
                      "--out", "e"])
    assert rc == 3
    assert "empty" in capsys.readouterr().err
    verdict = read_record(tmp_path / "e_verdict.txt")
    assert verdict["empty_region"] == "1"
    assert not (tmp_path / "e_scan.csv").exists()


def test_uniqueness_steep_artificial_data(capsys):
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-9"])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err


# an annulus 1 < r < 2 with an artificial outer ring at r = 2
ART_OUTER = ["uniqueness", "--shape", "annulus:1:2", "--h", "0.25",
             "--artificial", "outer"]


def test_uniqueness_reads_artificial_data_only_on_the_artificial_ring(
        capsys, tmp_path):
    # --art1 is infinite on the inner (dirichlet) ring, which it never sets
    rc = main(ART_OUTER + ["--bc", "0", "--art0", "0",
                           "--art1", "0.1/(r-1)", "--out", "pole"])
    # both solves converged; on this coarse mesh the level region is empty
    assert rc == 3, capsys.readouterr().err
    assert read_record(tmp_path / "pole_verdict.txt")["empty_region"] == "1"


@pytest.mark.parametrize("arts, used", [
    (["--art0", "0", "--art1", "-1"], False),
    (["--art0", "0"], True),
    (["--art1", "-1"], True),
], ids=["both", "art0-only", "art1-only"])
def test_uniqueness_reads_bc_on_the_artificial_ring_only_when_kept(
        capsys, tmp_path, arts, used):
    # --bc is infinite only on the artificial ring r = 4
    bc = "0.1/(r-4)"
    rc = main(UNIQ + ["--bc", bc, *arts, "--out", "bc"])
    err = capsys.readouterr().err
    if used:
        assert rc == 1
        assert err == f"error: expression {bc!r} is not finite on the boundary\n"
    else:
        assert rc == 0, err
        assert read_record(tmp_path / "bc_verdict.txt")["n_flagged"] == "0"


def test_uniqueness_field_file_route(capsys, tmp_path):
    # solving outside and passing the fields in reproduces the inline scan
    assert main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                        "--out", "inline"]) == 0
    mesh = build_annulus(1.0, 4.0, 0.2, artificial_rings=("outer",))
    ends = mesh.vertex_class == ARTIFICIAL
    bc0 = np.zeros(mesh.vertex_count)
    bc1 = np.zeros(mesh.vertex_count)
    bc1[ends] = -1.0
    config = SolverConfig(metric="lorentz", residual_tol=1e-10)
    v, _ = solve(mesh, bc0, config)
    vp, _ = solve(mesh, bc1, config)
    save_field(mesh, v, tmp_path / "v.csv")
    save_field(mesh, vp, tmp_path / "vp.csv")
    rc = main(UNIQ + ["--v", "v.csv", "--vprime", "vp.csv", "--out", "files"])
    assert rc == 0
    assert ((tmp_path / "files_scan.csv").read_bytes()
            == (tmp_path / "inline_scan.csv").read_bytes())
    capsys.readouterr()


def test_uniqueness_accepts_fields_written_by_solve(capsys, tmp_path):
    # the CLI's own solves pass the loaded-field premises and give the
    # inline run's files
    assert main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                        "--out", "inline"]) == 0
    mesh = build_annulus(1.0, 4.0, 0.2, artificial_rings=("outer",))
    save_field(mesh, np.where(mesh.vertex_class == ARTIFICIAL, -1.0, 0.0),
               tmp_path / "bc1.csv")
    assert main(["solve", *UNIQ[1:], "--bc", "0", "--out", "v"]) == 0
    assert main(["solve", *UNIQ[1:], "--bc", "@bc1.csv", "--out", "vp"]) == 0
    assert main(UNIQ + ["--v", "v_solution.csv", "--vprime",
                        "vp_solution.csv", "--out", "files"]) == 0
    for suffix in ("_verdict.txt", "_scan.csv", "_ode.csv"):
        assert ((tmp_path / f"files{suffix}").read_bytes()
                == (tmp_path / f"inline{suffix}").read_bytes())
    capsys.readouterr()


def loaded_field_error(capsys, tmp_path, mesh_args, v, vp):
    """The one stderr line of a uniqueness run on two loaded fields."""
    capsys.readouterr()
    rc = main(["uniqueness", *mesh_args, "--v", v, "--vprime", vp])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1
    assert not list(tmp_path.glob("out_*"))
    return err[0]


def test_uniqueness_refuses_loaded_fields_that_are_not_solutions(capsys,
                                                                 tmp_path):
    mesh_args = ["--shape", "annulus:1:4", "--h", "0.1",
                 "--artificial", "outer"]
    mesh = build_annulus(1.0, 4.0, 0.1, artificial_rings=("outer",))
    x, y = mesh.vertices.T
    r = np.hypot(x, y)
    # spacelike, but its flux form is not closed
    save_field(mesh, 0.1 * np.sin(3 * x) * np.cos(2 * y) + 0.4 * (r - 1) / 3,
               tmp_path / "wavy.csv")
    save_field(mesh, np.zeros(mesh.vertex_count), tmp_path / "zero.csv")
    save_field(mesh, 2.0 * x, tmp_path / "steep.csv")
    for v, vp in (("wavy.csv", "zero.csv"), ("zero.csv", "wavy.csv")):
        err = loaded_field_error(capsys, tmp_path, mesh_args, v, vp)
        assert err.startswith("error: field wavy.csv does not solve the "
                              "maximal surface equation: residual ")
        assert err.endswith(" above --tol 1e-10")
    err = loaded_field_error(capsys, tmp_path, mesh_args, "zero.csv",
                             "steep.csv")
    assert err == "error: field steep.csv is not spacelike: max |grad| 2"
    # past the residual premise, the true-boundary data still differ
    err = loaded_field_error(capsys, tmp_path, mesh_args + ["--tol", "10"],
                             "wavy.csv", "zero.csv")
    assert err == ("error: fields wavy.csv and zero.csv differ at a "
                   "dirichlet vertex")


def test_uniqueness_refuses_solutions_of_two_dirichlet_problems(capsys,
                                                                tmp_path):
    # each field solves its own problem; their true-boundary data differ
    mesh = build_annulus(1.0, 4.0, 0.2, artificial_rings=("outer",))
    inner = mesh.vertex_class != ARTIFICIAL
    save_field(mesh, np.where(inner, 0.1, -1.0), tmp_path / "bc1.csv")
    assert main(["solve", *UNIQ[1:], "--bc", "0", "--out", "v"]) == 0
    assert main(["solve", *UNIQ[1:], "--bc", "@bc1.csv", "--out", "vp"]) == 0
    err = loaded_field_error(capsys, tmp_path, UNIQ[1:], "v_solution.csv",
                             "vp_solution.csv")
    assert err == ("error: fields v_solution.csv and vp_solution.csv differ "
                   "at a dirichlet vertex")


def test_uniqueness_field_flags_validated(capsys):
    assert main(UNIQ + ["--v", "v.csv"]) == 1
    assert "go together" in capsys.readouterr().err
    assert main(UNIQ + []) == 1
    assert "--bc" in capsys.readouterr().err


def test_uniqueness_explicit_radii(capsys, tmp_path):
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                      "--radii", "2.5,3.0,3.5", "--out", "r"])
    assert rc == 0
    assert len(read_lines(tmp_path / "r_scan.csv")) == 4
    assert main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                        "--radii", "0,1"]) == 1
    capsys.readouterr()


def test_uniqueness_ratio_just_above_one_is_one_error_line(capsys):
    # the grid would need millions of radii; it is refused before any is built
    rc = main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                      "--ratio", "1.000000000001"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ratio 1.000000000001 gives ")


def test_uniqueness_seg_len_is_a_usage_error(capsys):
    # the circle segment length is always h/2, not a flag
    assert main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1",
                        "--seg-len", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "seg-len" in err


# ---------------------------------------------------------------------------
# --trace


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert ",".join(rows[0]) == TRACE_HEADER
    return rows


def check_trace_rows(rows, report):
    """One row per iterate, the last one's residual, energy and margin the
    report's."""
    assert [int(row["step"]) for row in rows] == \
        list(range(int(report["iterations"]) + 1))
    assert rows[0]["cycle"] == "none"
    assert {row["cycle"] for row in rows[1:]} <= {"built", "lagged"}
    for key in ("residual", "energy", "margin"):
        assert rows[-1][key] == report[key]


def test_trace_header_is_pinned():
    # made from NewtonStep's field order: moving a field moves a column
    assert TRACE_HEADER == ("solve,step,residual,forcing,matvecs,achieved,"
                            "step_length,backtracks,cycle,energy,margin")


def test_trace_rows_match_the_final_reports(capsys, tmp_path):
    assert main(["solve", "--shape", "rect:1x1", "--h", "0.125", "--metric",
                 "euclid", "--bc", "10*x*y", "--trace", "--out", "s"]) == 0
    rows = read_trace(tmp_path / "s_trace.csv")
    report = read_record(tmp_path / "s_report.txt")
    assert {row["solve"] for row in rows} == {"1"}
    assert int(report["iterations"]) >= 2
    check_trace_rows(rows, report)

    # the pair's two solves; the same solves again, in process, for reports
    assert main(UNIQ_SOLVES + ["--trace", "--out", "u"]) == 0
    capsys.readouterr()
    rows = read_trace(tmp_path / "u_trace.csv")
    mesh = build_annulus(1.0, 4.0, 0.2, artificial_rings=("outer",))
    bc = np.where(mesh.vertex_class == ARTIFICIAL, -1.0, 0.0)
    for number, data in (("1", np.zeros(mesh.vertex_count)), ("2", bc)):
        v, report = solve(mesh, data)
        assert report.margin == pytest.approx(gradient_margin(mesh, v),
                                              rel=1e-12)
        solve_rows = [row for row in rows if row["solve"] == number]
        check_trace_rows(solve_rows,
                         {k: fmt(x) for k, x in report.record_items()})
        # step 0 carries the harmonic start's Laplace solve
        first = report.steps[0]
        assert [solve_rows[0][key] for key in ("forcing", "achieved")] == \
            [fmt(first.forcing), fmt(first.achieved)]
        assert int(solve_rows[0]["matvecs"]) == first.matvecs
        assert (first.matvecs > 0) == (number == "2")


def test_trace_leaves_the_determinism_outputs_unchanged(capsys, tmp_path):
    # the solve and flux-scan runs of acceptance criterion 10, by the CLI
    runs = [["solve", "--shape", "rect:1x1", "--h", "0.015625",
             "--metric", metric, "--bc", "0.5*x-0.3*y+0.2", "--out", metric]
            for metric in ("lorentz", "euclid")]
    runs.append(["uniqueness", "--shape", "annulus:1:4", "--h", "0.05",
                 "--artificial", "outer", "--bc", "0", "--art0", "0",
                 "--art1", "-1", "--out", "flux"])
    for sub, extra in (("plain", []), ("traced", ["--trace"])):
        (tmp_path / sub).mkdir()
        os.chdir(tmp_path / sub)
        for argv in runs:
            assert main(argv + extra) == 0
    capsys.readouterr()
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    traced = sorted(p.name for p in (tmp_path / "traced").iterdir())
    assert traced == sorted(plain + ["euclid_trace.csv", "flux_trace.csv",
                                     "lorentz_trace.csv"])
    for name in plain:
        assert ((tmp_path / "traced" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name


# ---------------------------------------------------------------------------
# non-finite numbers


UNIQ_SOLVES = UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1"]
RECT = ["--shape", "rect:1x1", "--h", "0.25"]
DECAY = ["decay", "--lengths", "2,4", "--s", "1"]


@pytest.mark.parametrize("argv", [
    ["solve"] + RECT + ["--bc", "0.3*(x*x-y*y)", "--tol", "nan"],
    ["solve"] + RECT + ["--bc", "0.3*(x*x-y*y)", "--tol", "inf"],
    ["dualize"] + RECT + ["--in", "u.csv", "--direction", "min2max",
                          "--closedness-tol", "nan"],
    UNIQ_SOLVES + ["--tol-rel", "nan"],
    UNIQ_SOLVES + ["--ratio", "nan"],
    UNIQ_SOLVES + ["--ratio", "inf"],
    UNIQ_SOLVES + ["--radii", "1.5,nan"],
    DECAY + ["--h", "nan"],
    DECAY + ["--height", "inf"],
    DECAY + ["--s", "inf"],
    # sizes whose division count overflows a float or a C long
    ["decay", "--lengths", "1e308", "--s", "1"],
    ["solve", "--shape", "rect:1e308x1", "--h", "0.25", "--bc", "0"],
    ["solve", "--shape", "annulus:1:1e308", "--h", "0.25", "--bc", "0"],
    ["solve", "--shape", "rect:1x1", "--h", "1e-320", "--bc", "0"],
    ["decay", "--lengths", "4", "--s", "1", "--h", "1e-320"],
    ["solve", "--shape", "annulus:1:2", "--h", "1e-320", "--bc", "0"],
    ["solve", "--mesh", "big.mesh", "--bc", "0"],
], ids=["solve-tol-nan", "solve-tol-inf", "dualize-closedness-tol-nan",
        "uniqueness-tol-rel-nan", "uniqueness-ratio-nan",
        "uniqueness-ratio-inf", "uniqueness-radii-nan", "decay-h-nan",
        "decay-height-inf", "decay-s-inf", "decay-length-overflow",
        "rect-length-overflow", "annulus-radius-overflow", "rect-h-overflow",
        "decay-h-overflow", "annulus-h-overflow", "mesh-header-count-overflow"])
def test_non_finite_numbers_are_one_line_errors(capsys, tmp_path, square4,
                                                argv):
    save_field(square4, 0.3 * square4.vertices[:, 0], tmp_path / "u.csv")
    (tmp_path / "big.mesh").write_text("99999999999999999999 32 0.25\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err


def test_mesh_header_count_beyond_the_file_is_one_error_line(capsys,
                                                            tmp_path):
    # a count just below 2**63, with four vertex and two triangle lines
    (tmp_path / "big.mesh").write_text(
        "4 9223372036854775807 1\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
        "0 1 2\n0 2 3\n")
    assert main(["solve", "--mesh", "big.mesh", "--bc", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert "9223372036854775807 triangle lines" in err


def test_grid_past_the_int32_range_is_one_error_line(capsys):
    # refused from its division counts, before any array is allocated
    assert main(["solve", "--shape", "rect:1x1", "--h", str(2**-16),
                 "--bc", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert "past the int32 range" in err


def test_mesh_whose_area_overflows_is_one_error_line(capsys):
    # its total area would overflow to inf, and the solve would report it
    # converged with residual 0
    assert main(["solve", "--shape", "rect:1e155x1e155", "--h", "1e154",
                 "--bc", "2e154*sin(3e-155*x)*sin(3e-155*y)"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert "area overflows the float range" in err


# ---------------------------------------------------------------------------
# decay


def test_decay_prints_table(capsys, tmp_path):
    rc = main(["decay", "--lengths", "2,4", "--s", "1", "--h", "0.5",
               "--out", "d"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("L=2 diff=")
    assert "L=4 diff=" in out
    assert read_lines(tmp_path / "d_decay.csv")[0] == "L,diff"


def test_decay_zero_offset_not_decreasing(capsys):
    rc = main(["decay", "--lengths", "1,2", "--s", "0", "--h", "0.5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("L=1 diff=")
    assert captured.err == "center differences do not decrease strictly\n"


def test_decay_input_validation(capsys):
    assert main(["decay", "--lengths", "4,2", "--s", "1", "--h", "0.5"]) == 1
    assert main(["decay", "--lengths", "2,0", "--s", "1", "--h", "0.5"]) == 1
    assert main(["decay", "--lengths", "2,4", "--s", "1", "--h", "0.5",
                 "--phi", "sin("]) == 1
    capsys.readouterr()


def test_decay_nonconvergence_exit(capsys):
    rc = main(["decay", "--lengths", "1", "--s", "20", "--h", "0.5"])
    assert rc == 2
    assert "strip L=1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a run is its flags


def test_config_flag_is_refused_as_unknown(capsys):
    for config in (["--config", "x.cfg"], ["--config=x.cfg"]):
        assert main(["lemma", "--eps", "0.4"] + config) == 1
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {' '.join(config)}\n"


# ---------------------------------------------------------------------------
# start-up cost


def probe_env():
    """This process's environment with maxsurf's source on PYTHONPATH."""
    src = str(Path(maxsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


IMPORT_PROBE = """
import sys
import maxsurf.cli
from maxsurf import SolverConfig, build_rectangle, maximal_conjugate, solve
mesh = build_rectangle(1.0, 1.0, 1.0 / 32)
x, y = mesh.vertices.T
u, report = solve(mesh, x * x - y * y, SolverConfig(metric="euclid"))
assert report.converged
maximal_conjugate(mesh, u)
heavy = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")
print(sorted(name for name in sys.modules
             if any(name == h or name.startswith(h + ".") for h in heavy)))
"""


def test_solve_and_conjugate_import_no_scipy_solver_packages():
    # each of these costs a tenth of a second or more of interpreter start-up
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=probe_env(), capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


FIELD_PROBE = """
import os
import sys
import maxsurf.cli
from maxsurf import (build_rectangle, load_field, load_mesh, maximal_conjugate,
                     return_trip_error, save_field, save_mesh)
workdir = sys.argv[1]
save_mesh(build_rectangle(1.0, 1.0, 1.0 / 16), os.path.join(workdir, "r.mesh"))
mesh = load_mesh(os.path.join(workdir, "r.mesh"))
x, y = mesh.vertices.T
save_field(mesh, 0.3 * x + 0.2 * y, os.path.join(workdir, "u.csv"))
u = load_field(mesh, os.path.join(workdir, "u.csv"))
assert return_trip_error(mesh, u, maximal_conjugate(mesh, u)) < 1e-12
print(sorted(name for name in sys.modules
             if name == "scipy.sparse" or name.startswith("scipy.sparse.")
             or name == "maxsurf._sparsetools"))
"""


def test_field_io_and_conjugation_import_no_scipy_sparse(tmp_path):
    # not even the solver's compiled sparse kernels are loaded
    out = subprocess.run([sys.executable, "-c", FIELD_PROBE, str(tmp_path)],
                         env=probe_env(), capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


UNIQUENESS_PROBE = """
import sys
from maxsurf import cli as cli_module
from maxsurf.cli import main
assert main(["uniqueness", "--shape", "annulus:1:4", "--h", "0.2",
             "--artificial", "outer", "--bc", "0", "--art0", "0",
             "--art1", "-1", "--out", "u"]) == 0
heavy = ("scipy.spatial", "scipy.linalg")
print(sorted(name for name in sys.modules
             if any(name == h or name.startswith(h + ".") for h in heavy)))
"""


def test_uniqueness_imports_no_scipy_spatial_or_linalg(tmp_path):
    # the flux scan's circle arcs need no k-d tree
    out = subprocess.run([sys.executable, "-c", UNIQUENESS_PROBE],
                         cwd=tmp_path, env=probe_env(), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the verdict record comes first
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "u_scan.csv").exists()


SCIPY_PROBE = """
import sys
from maxsurf.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")
             or name == "maxsurf._sparsetools"))
"""

SOLVING_COMMANDS = {
    "solve": ["solve", "--shape", "rect:1x1", "--h", "0.0625", "--metric",
              "euclid", "--bc", "x*x-y*y", "--out", "u"],
    "uniqueness": ["uniqueness", "--shape", "annulus:1:4", "--h", "0.2",
                   "--artificial", "outer", "--bc", "0", "--art0", "0",
                   "--art1", "-1", "--out", "u"],
}


@pytest.mark.parametrize("command", sorted(SOLVING_COMMANDS))
def test_solving_process_loads_only_the_compiled_sparse_kernels(command,
                                                                tmp_path):
    # the solver loads scipy's compiled CSR kernels on their own: importing
    # scipy.sparse costs about 20 MiB and a fifth of a second
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *SOLVING_COMMANDS[command]],
        cwd=tmp_path, env=probe_env(), capture_output=True, text=True,
        timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "['maxsurf._sparsetools']"
    assert list(tmp_path.glob("u_*"))


HOST_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.sparse
from maxsurf import SolverConfig, build_rectangle, solve
from maxsurf.solver import _sparsetools


def run_solve():
    mesh = build_rectangle(1.0, 1.0, 1.0 / 16)
    x, y = mesh.vertices.T
    u, report = solve(mesh, x * x - y * y, SolverConfig(metric="euclid"))
    assert report.converged
    return u


u = run_solve()
import scipy.sparse
a = scipy.sparse.csr_matrix(np.arange(12.0).reshape(3, 4))
assert np.array_equal((a @ a.T).toarray(), a.toarray() @ a.toarray().T)
assert np.array_equal(a @ np.ones(4), a.toarray().sum(axis=1))
assert np.array_equal(run_solve(), u)
print(_sparsetools() is sys.modules["scipy.sparse._sparsetools"])
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_host_program_may_import_scipy_sparse_before_or_after_a_solve(
        order, tmp_path):
    # one kernel module serves both once scipy.sparse is imported: the
    # solver uses scipy's from then on
    out = subprocess.run([sys.executable, "-c", HOST_PROBE, order],
                         cwd=tmp_path, env=probe_env(), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


SCIPY_AFTER_SOLVE_PROBE = """
import sys
import numpy as np
from maxsurf import build_rectangle, solve
mesh = build_rectangle(1.0, 1.0, 0.25)
assert solve(mesh, 0.1 * mesh.vertices[:, 0])[1].converged
assert "scipy.sparse" not in sys.modules
import scipy.sparse
a = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
print(hasattr(scipy.sparse, "_sparsetools"), a @ np.ones(2))
"""


def test_scipy_sparse_imported_after_a_solve_has_its_kernel_module(tmp_path):
    # the solver's own copy of the kernels does not take scipy's name
    out = subprocess.run([sys.executable, "-c", SCIPY_AFTER_SOLVE_PROBE],
                         cwd=tmp_path, env=probe_env(), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True [3. 3.]"


# A CLI process run as ``python -m maxsurf.cli`` imports the package before
# numpy: OpenBLAS then starts no worker thread, which would spin after the
# import and after dense calls.  It prints the setting and the CPU ticks of
# its threads other than the main one, after a pause in which a spinning
# worker would have spent some.
CLI_THREADS_PROBE = """
import glob, os, runpy, sys, time
sys.argv = ["maxsurf", "solve", "--shape", "rect:1x1", "--h", "0.0625",
            "--bc", "0.3*x*y", "--out", "u"]
try:
    runpy.run_module("maxsurf.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
time.sleep(0.3)
other = 0
for path in glob.glob("/proc/self/task/*/stat"):
    if int(path.split("/")[-2]) != os.getpid():
        fields = open(path).read().rsplit(")", 1)[1].split()
        other += int(fields[11]) + int(fields[12])  # utime + stime
print(os.environ["OPENBLAS_NUM_THREADS"], other)
"""


def run_without_blas_setting(code, cwd, **extra):
    env = probe_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(extra)
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="per-thread CPU times need /proc/self/task")
def test_cli_process_runs_one_blas_thread(tmp_path):
    assert run_without_blas_setting(CLI_THREADS_PROBE, tmp_path) == "1 0"
    assert (tmp_path / "u_solution.csv").exists()


def test_explicit_blas_thread_setting_wins(tmp_path):
    probe = "import os, maxsurf; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_without_blas_setting(probe, tmp_path,
                                    OPENBLAS_NUM_THREADS="2") == "2"


def test_host_that_loaded_numpy_first_keeps_its_blas(tmp_path):
    probe = ("import os, numpy, maxsurf; "
             "print('OPENBLAS_NUM_THREADS' in os.environ)")
    assert run_without_blas_setting(probe, tmp_path) == "False"


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "solve" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["polish"]) == 1
    assert main([]) == 1
    capsys.readouterr()
