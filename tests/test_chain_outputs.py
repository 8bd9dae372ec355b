"""The command chains that tools/chain_outputs.py runs, checked by --list."""

import importlib.util
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "chain_outputs.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
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
    workloads = load_workloads()
    chains = listed()
    for name, workload in workloads.WORKLOADS.items():
        expected = workload.commands(workload.inputs(0)[0])
        got = chains.pop(name)
        assert [[a for a in cmd if a != "--trace"] for cmd in got] == expected
        for cmd in got:
            assert ("--trace" in cmd) == (cmd[0] in ("solve", "uniqueness"))
    # and one lemma and one decay command
    assert {name: [cmd[0] for cmd in cmds] for name, cmds in chains.items()} \
        == {"lemma": ["lemma"], "decay": ["decay"]}
