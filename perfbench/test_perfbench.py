"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

The traced CLI runs in a child process, as in the benchmark, so the wrapped
functions never leak into the test process.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER, is_count, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TINY_DECAY = ["decay", "--lengths", "4,8", "--s", "1", "--h", "0.5",
              "--out", "run"]
TINY_UNIQUENESS = ["uniqueness", "--shape", "annulus:1:4", "--h", "0.1",
                   "--artificial", "outer", "--bc", "0", "--art0", "0",
                   "--art1", "-1", "--out", "run"]


def _env():
    env = dict(os.environ)
    env.pop("MAXSURF_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(workdir: Path, args: list[str], traced: bool):
    """(exit code, stdout, spans or None) of one CLI process in workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    spans = workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "child.py"), "trace", str(spans)]
    else:
        argv = [sys.executable, "-m", "maxsurf.cli"]
    proc = subprocess.run(argv + args, cwd=workdir, env=_env(),
                          capture_output=True, timeout=120)
    return (proc.returncode, proc.stdout,
            json.loads(spans.read_text()) if traced else None)


def test_newton_steps_match_solve_reports(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from maxsurf.uniqueness import perturbation_decay

    code, _, spans = run_cli(tmp_path, TINY_DECAY, traced=True)
    assert code == 0
    table = perturbation_decay([4.0, 8.0], s=1.0, h=0.5)
    metrics = layer_metrics([spans])
    assert metrics["solver.newton_steps"] == int(table.iterations.sum()) > 0
    assert metrics["solver.solve_calls"] == 4
    assert metrics["mesh.build_calls"] == 2  # build_strip's inner call folds


@pytest.mark.parametrize("args", [TINY_DECAY, TINY_UNIQUENESS])
def test_traced_outputs_are_byte_identical(tmp_path, args):
    plain = run_cli(tmp_path / "plain", args, traced=False)
    traced = run_cli(tmp_path / "traced", args, traced=True)
    assert plain[0] == traced[0] == 0
    assert plain[1] == traced[1]
    outputs = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert outputs == sorted(p.name for p in (tmp_path / "traced").iterdir()
                             if p.name != "spans.json")
    for name in outputs:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes()), name


def test_counters_repeat_exactly(tmp_path):
    runs = [layer_metrics([run_cli(tmp_path / str(i), TINY_UNIQUENESS,
                                   traced=True)[2]])
            for i in range(2)]
    counters = [k for k in runs[0] if is_count(k)]
    assert {k: runs[0][k] for k in counters} == {k: runs[1][k] for k in counters}
    assert runs[0]["forms.pieces"] > 0 and runs[0]["solver.cg_matvecs"] > 0
    assert runs[0]["forms.potential_calls"] == 0


def test_layer_metrics_cover_the_declared_metrics():
    names = set(layer_metrics([[]])) | {"trace.overhead_s"}
    assert names == set(PER_LAYER)


def test_self_time_subtracts_direct_children():
    spans = [["cli", 0.0, 10.0, -1, {}],
             ["solver.solve", 1.0, 9.0, 0, {"newton_steps": 3}],
             ["solver.cg", 2.0, 5.0, 1, {"matvecs": 40}],
             ["solver.cg", 5.0, 6.0, 1, {"matvecs": 10}]]
    m = layer_metrics([spans])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["solver.self_s"] == pytest.approx(4.0)
    assert m["solver.matvecs_per_cg"] == 25.0


def test_trace_overhead_is_a_difference_of_medians():
    from run import Proc, Sample, traced_metrics

    def sample(traced, wall):
        return Sample(traced=traced, input=0, procs=[Proc(0, wall, wall, 1.0)],
                      layers=layer_metrics([[]]) if traced else {})

    samples = [sample(False, 10.0), sample(True, 11.5),
               sample(False, 14.0), sample(True, 12.5),
               sample(False, 12.0), sample(True, 99.0)]
    assert traced_metrics(samples)["trace.overhead_s"] == pytest.approx(0.5)


def test_seed_zero_reproduces_reference_commands():
    inputs = {name: w.inputs(DEFAULT_SEED) for name, w in WORKLOADS.items()}
    assert all(len(i) == 1 for i in inputs.values())
    cmds = {name: WORKLOADS[name].commands(i[0]) for name, i in inputs.items()}
    assert cmds["uniqueness-annulus"] == [[
        "uniqueness", "--shape", "annulus:1:4", "--h", "0.025",
        "--artificial", "outer", "--bc", "0", "--art0", "0", "--art1", "-1",
        "--out", "run"]]
    assert cmds["conjugate-rect"][0][:6] == [
        "solve", "--mesh", "rect.mesh", "--metric", "euclid", "--bc"]
    assert cmds["conjugate-rect"][0][6] == "x*x-y*y"


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_seeded_inputs_stay_in_range(seed):
    sys.path.insert(0, str(ROOT / "src"))
    from maxsurf.expressions import Expression

    inputs = {name: w.inputs(seed) for name, w in WORKLOADS.items()}
    assert inputs == {name: w.inputs(seed) for name, w in WORKLOADS.items()}
    art1 = sorted(float(p["art1"]) for p in inputs["uniqueness-annulus"])
    # one draw from each quarter of [-1.2, -0.8]
    assert [math.floor((a + 1.2) / 0.1) for a in art1] == [0, 1, 2, 3]
    a_b = []
    for params in inputs["conjugate-rect"]:
        bc = Expression(params["bc"])
        a_b.append((float(bc(1.0, 0.0)),    # a * (1 - 0)
                    float(bc(1.0, 1.0))))   # a * 0 + b
    # one draw of a and of b from each half of its range
    assert sorted(a < 1.0 for a, _ in a_b) == [False, True]
    assert sorted(b < 0.0 for _, b in a_b) == [False, True]
    assert all(0.8 <= a <= 1.2 and -0.2 <= b <= 0.2 for a, b in a_b)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conjugate-rect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
