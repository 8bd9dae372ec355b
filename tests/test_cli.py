"""Command line behavior: flags, files, exit codes, determinism."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxsurf
from maxsurf import (
    ARTIFICIAL,
    SolverConfig,
    build_annulus,
    gradient_margin,
    save_field,
    save_mesh,
    solve,
)
from maxsurf.cli import main
from maxsurf.expressions import MAX_DEPTH
from maxsurf.records import fmt
from maxsurf.solver import TRACE_HEADER

from conftest import read_record


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


def test_uniqueness_seg_len_is_a_usage_error(capsys, tmp_path):
    # the circle segment length is always h/2; neither flag nor config key
    (tmp_path / "seg.cfg").write_text("seg_len=0.05\n")
    for extra in (["--seg-len", "0.05"], ["--config", "seg.cfg"]):
        assert main(UNIQ + ["--bc", "0", "--art0", "0", "--art1", "-1"]
                    + extra) == 1
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
        assert report.margin == gradient_margin(mesh, v)
        check_trace_rows([row for row in rows if row["solve"] == number],
                         {k: fmt(x) for k, x in report.record_items()})


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
], ids=["solve-tol-nan", "solve-tol-inf", "dualize-closedness-tol-nan",
        "uniqueness-tol-rel-nan", "uniqueness-ratio-nan",
        "uniqueness-ratio-inf", "uniqueness-radii-nan", "decay-h-nan",
        "decay-height-inf", "decay-s-inf"])
def test_non_finite_numbers_are_one_line_errors(capsys, tmp_path, square4,
                                                argv):
    save_field(square4, 0.3 * square4.vertices[:, 0], tmp_path / "u.csv")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:"), err


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
    capsys.readouterr()


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
# config files and environment


def test_config_file_supplies_flags(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(
        "# solver settings\nmetric=euclid\nmax_newton=30\n")
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.25",
               "--bc", "x^2-y^2", "--config", "run.cfg", "--out", "c"])
    assert rc == 0
    # byte-identical with the flags spelled out
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.25",
               "--bc", "x^2-y^2", "--metric", "euclid", "--max-newton", "30",
               "--out", "x"])
    assert rc == 0
    assert ((tmp_path / "c_solution.csv").read_bytes()
            == (tmp_path / "x_solution.csv").read_bytes())
    capsys.readouterr()


def test_flags_after_config_override_it(tmp_path, capsys):
    (tmp_path / "lemma.cfg").write_text("samples=5000\nseed=2\n")
    rc = main(["lemma", "--eps", "0.4", "--config", "lemma.cfg",
               "--samples", "100", "--out", "o"])
    assert rc == 0
    assert read_record(tmp_path / "o_lemma.txt")["n_samples"] == "100"
    capsys.readouterr()


def test_config_underscore_keys_reach_dashed_flags(tmp_path, capsys):
    (tmp_path / "tight.cfg").write_text("max_newton=1\n")
    rc = main(["solve", "--shape", "rect:1x1", "--h", "0.125",
               "--bc", "0.3*sin(2*x)*sin(2*y)", "--config", "tight.cfg",
               "--out", "t"])
    assert rc == 2
    assert "max_newton" in capsys.readouterr().err


def test_config_errors(tmp_path, capsys):
    assert main(["lemma", "--eps", "0.4", "--config", "missing.cfg"]) == 1
    (tmp_path / "mangled.cfg").write_text("no equals sign here\n")
    assert main(["lemma", "--eps", "0.4", "--config", "mangled.cfg"]) == 1
    assert main(["lemma", "--eps", "0.4", "--config"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# start-up cost


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
    src = str(Path(maxsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
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
             if name == "scipy.sparse" or name.startswith("scipy.sparse.")))
"""


def test_field_io_and_conjugation_import_no_scipy_sparse(tmp_path):
    # scipy.sparse is imported only where the solver builds a matrix
    src = str(Path(maxsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", FIELD_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


UNIQUENESS_PROBE = """
import sys
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
    src = str(Path(maxsurf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", UNIQUENESS_PROBE],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the verdict record comes first
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "u_scan.csv").exists()


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
