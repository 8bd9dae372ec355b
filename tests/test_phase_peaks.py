"""tools/phase_peaks.py: one table of phases per seed-0 workload command."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "phase_peaks.py"


def tables(out: str) -> dict[str, dict[str, tuple[int, float, float]]]:
    """{"workload: command": {phase: (calls, held, peak)}} of the output."""
    found = {}
    for line in out.splitlines():
        if not line.startswith("  "):
            rows = found[line] = {}
            continue
        name, calls, n, held, h, peak, p = line.split()
        assert (calls, held, peak) == ("calls", "held", "peak")
        rows[name] = (int(n), float(h), float(p))
    return found


def test_phase_peaks_runs_the_seed0_chains():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    found = tables(proc.stdout)
    assert list(found) == ["uniqueness-annulus: uniqueness",
                           "conjugate-rect: solve", "conjugate-rect: dualize"]
    for rows in found.values():
        # the whole command first, counted from its own start
        assert next(iter(rows)) == "cli" and rows["cli"][:2] == (1, 0.0)
        top = rows["cli"][2]
        for calls, held, peak in rows.values():
            assert calls >= 1 and 0.0 <= held <= peak <= top
    assert found["conjugate-rect: solve"]["solver._AssemblyPlan.__init__"][0] == 1
    assert found["conjugate-rect: dualize"]["forms._PotentialTree.__init__"][0] == 1
    assert found["conjugate-rect: dualize"]["forms.integrate_potential"][0] == 2


def test_phase_peaks_without_src_prints_usage():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True)
    assert proc.returncode == 2 and "Usage" in proc.stderr
