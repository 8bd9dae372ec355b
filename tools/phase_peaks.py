"""Print the traced memory of each phase of the benchmark's seed-0 chains,
and each command's peak RSS.

Usage: ``python3 tools/phase_peaks.py SRC`` imports ``maxsurf`` from SRC
and runs each workload of ``perfbench/workloads.py`` on its seed-0 input
set in this process: the workload's untimed prepare step, then its CLI
commands one at a time (``maxsurf.cli.main``, its standard output
dropped), in a temporary directory.  ``tracemalloc`` restarts for every command, so the figures count the
Python and numpy memory the command allocates, not the imports.

For every command it prints one line per phase that ran, in the order the
phases were first entered:

    <phase> calls <n> held <MiB> peak <MiB>

A phase is one function or constructor of ``PHASES``, or ``cli``, the
whole command.  ``peak`` is the most memory traced during any one call of
the phase, and ``held`` the memory traced when that call began, so
``peak - held`` is the call's transient.  Nested phases each count their
own calls in full.

The ``cli`` line ends in ``rss <MiB> faults <n>``: the peak resident set
size and the minor page faults of the same command run again, untraced,
in a process of its own (``python3 -m maxsurf.cli`` with SRC on
``PYTHONPATH``), as ``os.wait4`` reports them to a small launcher process.
Both count the interpreter and the imports as well.  The RSS is what the
benchmark's ``peak_rss_mib`` measures; a minor fault maps in a page on
its first touch, and again after the page was unmapped or trimmed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MIB = 2.0 ** 20
# module, then a function or Class.method of it
PHASES = (
    "mesh.load_mesh", "mesh.build_rectangle", "mesh.build_annulus",
    "mesh.Mesh.__post_init__",
    "solver.solve", "solver._initial_guess", "solver._harmonic_extension",
    "solver._AssemblyPlan.__init__", "solver._VCycle.__init__",
    "solver.tangent_matrix", "solver.cg_solve", "solver.residual",
    "solver.p1_gradient", "solver.save_field", "solver.load_field",
    "forms.integrate_potential", "forms._PotentialTree.__init__",
    "forms.polyline_pieces", "forms.circulations",
    "uniqueness.level_region", "uniqueness.flux_scan",
    "duality.maximal_conjugate", "duality.minimal_conjugate",
    "duality.return_trip_error",
)


class Phases:
    """Per-phase calls, and held and peak bytes of the call that peaked."""

    def __init__(self):
        self.rows: dict[str, list] = {}  # name -> [calls, held, peak]
        self._best: list[int] = []  # peak so far of each open call

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            row = self.rows.setdefault(name, [0, 0, -1])
            held, outer = tracemalloc.get_traced_memory()
            if self._best:
                self._best[-1] = max(self._best[-1], outer)
            tracemalloc.reset_peak()
            self._best.append(held)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(self._best.pop(), tracemalloc.get_traced_memory()[1])
                if self._best:
                    self._best[-1] = max(self._best[-1], peak)
                row[0] += 1
                if peak > row[2]:
                    row[1:] = held, peak

        return measured

    def lines(self) -> list[str]:
        return [f"{name} calls {calls} held {held / MIB:.1f} "
                f"peak {peak / MIB:.1f}"
                for name, (calls, held, peak) in self.rows.items()]


def install(phases: Phases) -> None:
    """Wrap every phase wherever a maxsurf module holds it."""
    import maxsurf.cli  # noqa: F401  (imports every layer)

    modules = [m for key, m in sys.modules.items()
               if key == "maxsurf" or key.startswith("maxsurf.")]
    for phase in PHASES:
        home, *path = phase.split(".")
        owner = sys.modules[f"maxsurf.{home}"]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, path[-1])
        wrapped = phases.wrap(phase, original)
        if len(path) > 1:
            setattr(owner, path[-1], wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(phases: Phases, argv: list[str]) -> list[str]:
    """The phase lines of one CLI command, run in the current directory."""
    import maxsurf.cli

    phases.rows = {}
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = phases.wrap("cli", maxsurf.cli.main)(argv)
    finally:
        tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"maxsurf {argv[0]} exited with {code}")
    return phases.lines()


# Run by a launcher that imports no numpy: on Linux a child's peak RSS
# starts from the high-water mark of the process that spawned it, which
# here holds the traced chains
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def peak_rss_and_faults(src: Path, argv: list[str]) -> tuple[float, int]:
    """Peak RSS in MiB and minor page faults of one CLI command run in a
    process of its own, in the current directory."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable,
                          "-m", "maxsurf.cli", *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, kib, faults = map(int, out.split())
    if code != 0:
        raise SystemExit(f"maxsurf {argv[0]} exited with {code}")
    return kib / 1024.0, faults  # ru_maxrss is KiB


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import maxsurf

    bench = workloads()
    phases = Phases()
    install(phases)
    home = os.getcwd()
    for name, workload in bench.WORKLOADS.items():
        params = workload.inputs(bench.DEFAULT_SEED)[0]
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                workload.prepare(maxsurf, Path(workdir))
                for cmd in workload.commands(params):
                    lines = measure(phases, cmd)
                    rss, faults = peak_rss_and_faults(src, cmd)
                    lines[0] += f" rss {rss:.1f} faults {faults}"
                    print(f"{name}: {cmd[0]}")
                    for line in lines:
                        print(f"  {line}")
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
