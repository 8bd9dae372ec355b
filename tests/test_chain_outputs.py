"""tools/chain_outputs.py: the chains --list gives, and a run into a relative OUT."""

import importlib.util
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "chain_outputs.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def listed():
    out = subprocess.run([sys.executable, str(SCRIPT), "--list"],
                         capture_output=True, text=True, check=True).stdout
    chains = {}
    for line in out.splitlines():
        name, _, command = line.partition(": ")
        chains.setdefault(name, []).append(shlex.split(command))
    return chains


def test_list_gives_the_seed0_workload_chains_with_trace():
    workloads = load("perfbench_workloads",
                     ROOT / "perfbench" / "workloads.py")
    chains = listed()
    for name, workload in workloads.WORKLOADS.items():
        expected = workload.commands(workload.inputs(0)[0])
        got = chains.pop(name)
        assert [[a for a in cmd if a != "--trace"] for cmd in got] == expected
        for cmd in got:
            assert ("--trace" in cmd) == (cmd[0] in ("solve", "uniqueness"))
    # a lemma, a decay, a failed start, and a solve dualized max2min
    assert {name: [cmd[0] for cmd in cmds] for name, cmds in chains.items()} \
        == {"lemma": ["lemma"], "decay": ["decay"], "failed-start": ["solve"],
            "max2min": ["solve", "dualize"]}
    assert "--trace" in chains["failed-start"][0]
    assert "max2min" in chains["max2min"][1]


def test_relative_out_reaches_the_prepare_step(tmp_path, monkeypatch):
    # the prepare step runs inside OUT/<chain>; one cheap command after it
    tool = load("chain_outputs", SCRIPT)
    monkeypatch.setattr(tool, "chains", lambda: {"conjugate-rect": [
        ["lemma", "--eps", "0.3", "--samples", "10", "--out", "run"]]})
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(ROOT / "src"), "out"]) == 0
    workdir = tmp_path / "out" / "conjugate-rect"
    assert (workdir / "rect.mesh").is_file()
    assert (workdir / "0_lemma.exit").read_text() == "0\n"
