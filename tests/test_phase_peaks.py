"""tools/phase_peaks.py: one table of phases per seed-0 workload command."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "phase_peaks.py"


def tables(out: str):
    """{"workload: command": {phase: (calls, held, peak)}} of the output,
    and {"workload: command": (peak RSS, page faults)} of its ``cli``
    lines."""
    found, rss = {}, {}
    for line in out.splitlines():
        if not line.startswith("  "):
            rows = found[command := line] = {}
            continue
        name, calls, n, held, h, peak, p, *tail = line.split()
        assert (calls, held, peak) == ("calls", "held", "peak")
        rows[name] = (int(n), float(h), float(p))
        if name == "cli":
            label, mib, label_faults, faults = tail
            assert (label, label_faults) == ("rss", "faults")
            rss[command] = float(mib), int(faults)
        else:
            assert not tail
    return found, rss


def test_phase_peaks_runs_the_seed0_chains():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    found, rss = tables(proc.stdout)
    assert list(found) == ["uniqueness-annulus: uniqueness",
                           "conjugate-rect: solve", "conjugate-rect: dualize"]
    assert list(rss) == list(found)
    for command, rows in found.items():
        # the whole command first, counted from its own start
        assert next(iter(rows)) == "cli" and rows["cli"][:2] == (1, 0.0)
        top = rows["cli"][2]
        for calls, held, peak in rows.values():
            assert calls >= 1 and 0.0 <= held <= peak <= top
        # the process holds the traced peak, the interpreter and the
        # imports: numpy alone takes more than 10 MiB
        mib, faults = rss[command]
        assert mib > top + 10.0
        assert faults > 0
    assert found["conjugate-rect: solve"]["solver._AssemblyPlan.__init__"][0] == 1
    assert found["conjugate-rect: dualize"]["forms._PotentialTree.__init__"][0] == 1
    assert found["conjugate-rect: dualize"]["forms.integrate_potential"][0] == 2


def test_phase_peaks_without_src_prints_usage():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True)
    assert proc.returncode == 2 and "Usage" in proc.stderr
