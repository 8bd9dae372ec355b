"""Run the benchmark's seed-0 command chains and keep everything they write.

Usage: ``python3 tools/chain_outputs.py SRC OUT`` runs each workload of
``perfbench/workloads.py`` on its seed-0 input set, with ``--trace`` added
to every ``solve`` and ``uniqueness`` command, then the chains of
``EXTRA``: a ``lemma``, a ``decay``, a traced ``solve`` whose start is
not spacelike (it exits 2 after the whole start ladder and writes the
failed-start report and trace), and a Lorentz ``solve`` dualized in the
``max2min`` direction.  Every CLI command runs in a process of
its own, ``python3 -m maxsurf.cli`` with ``PYTHONPATH=SRC``, in one
directory per chain under OUT (which must not exist yet).  A workload's
untimed input generation (``perfbench/child.py prepare``) runs there
first.  Beside the files the commands write, each command leaves its
standard output, standard error and exit code as ``<i>_<command>.stdout``,
``.stderr`` and ``.exit``.  ``diff -r`` of the OUT directories of two
source trees is then empty exactly when they give byte-identical results.

``python3 tools/chain_outputs.py --list`` prints the commands, one
``DIR: ARGS`` line each, and runs nothing.
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = ("solve", "uniqueness")  # the commands that take --trace
EXTRA = {
    "lemma": [["lemma", "--eps", "0.3", "--samples", "20000", "--out", "run"]],
    "decay": [["decay", "--lengths", "4,6,8", "--s", "1", "--out", "run"]],
    "failed-start": [["solve", "--shape", "rect:1x1", "--h", "0.25",
                      "--bc", "2*x", "--trace", "--out", "run"]],
    "max2min": [
        ["solve", "--shape", "rect:1x1", "--h", "0.0625",
         "--bc", "0.3*sin(2*x)*cos(y)", "--out", "run"],
        ["dualize", "--shape", "rect:1x1", "--h", "0.0625",
         "--in", "run_solution.csv", "--direction", "max2min", "--out", "run"],
    ],
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chains() -> dict[str, list[list[str]]]:
    """CLI argument lists of every chain, by directory, in run order."""
    workloads = _workloads()
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        params = workload.inputs(workloads.DEFAULT_SEED)[0]
        out[name] = [cmd + ["--trace"] if cmd[0] in TRACED else cmd
                     for cmd in workload.commands(params)]
    out.update(EXTRA)
    return out


def run(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    out.mkdir(parents=True)
    for name, commands in chains().items():
        workdir = out / name
        workdir.mkdir()
        if name not in EXTRA:
            subprocess.run([sys.executable, str(BENCH / "child.py"),
                            "prepare", name, str(workdir)],
                           cwd=workdir, env=env, check=True)
        for i, cmd in enumerate(commands):
            proc = subprocess.run([sys.executable, "-m", "maxsurf.cli", *cmd],
                                  cwd=workdir, env=env, capture_output=True)
            stem = workdir / f"{i}_{cmd[0]}"
            stem.with_suffix(".stdout").write_bytes(proc.stdout)
            stem.with_suffix(".stderr").write_bytes(proc.stderr)
            stem.with_suffix(".exit").write_text(f"{proc.returncode}\n")
            print(f"{name}: {cmd[0]} exited with {proc.returncode}")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, commands in chains().items():
            for cmd in commands:
                print(f"{name}: {shlex.join(cmd)}")
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    # the workload's prepare step runs inside OUT/<chain>, so a relative OUT
    # must not be handed to it as given
    run(Path(argv[0]).resolve(), Path(argv[1]).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
