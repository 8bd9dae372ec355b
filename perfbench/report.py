"""Summary of the end-to-end metrics of every workload.

    python3 perfbench/report.py

Run from the repository root.  Runs each workload once with seed 0 and
tracing off, for the ``run_seconds`` of ``BENCHMARK.json`` (as ``run.py
--trace 0`` does).  Then prints, per workload, ``wall_s``, ``setup_s``,
``cpu_s``, ``peak_rss_mib`` and ``fail_frac`` with unit and sample count,
over every untraced seed-0 run record of the current sources under
``.perfbench/records``, this run's included.  Timings show the median and
the highest percentile that leaves at least ten samples above it; that
needs eleven samples, so on the slower workloads it shows once enough runs
have piled up.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import BENCH, RECORDS, run, source_fingerprint
from workloads import DEFAULT_SEED, WORKLOADS


def tail(values: list[float]):
    """(percentile, value) with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def current_records() -> list[dict]:
    """Untraced seed-0 run records of the sources as they are now."""
    sources = source_fingerprint()
    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*.json"))]
    return [r for r in records
            if not r["trace"] and r["seed"] == DEFAULT_SEED
            and r["source_fingerprint"] == sources]


def summarize(records: list[dict]) -> list[str]:
    lines = [f"{'workload':<20} {'metric':<13} {'median':>12} "
             f"{'tail':>20} {'unit':>8} {'n':>4}"]
    for name in WORKLOADS:
        recs = [r for r in records if r["workload"] == name]
        if not recs:
            continue
        samples = [s for r in recs for s in r["samples"] if not s["traced"]]
        series = {
            "wall_s": ([s["wall_s"] for s in samples], "s"),
            "setup_s": ([t for r in recs for t in r["setup_s"]], "s"),
            "cpu_s": ([s["cpu_s"] for s in samples], "s"),
            "peak_rss_mib": ([s["peak_rss_mib"] for s in samples], "MiB"),
        }
        for metric, (values, unit) in series.items():
            if not values:
                continue
            high = tail(values)
            high_text = f"p{high[0]:.0f}={high[1]:.4f}" if high else "n<11"
            lines.append(f"{name:<20} {metric:<13} "
                         f"{statistics.median(values):>12.4f} {high_text:>20} "
                         f"{unit:>8} {len(values):>4}")
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        lines.append(f"{name:<20} {'fail_frac':<13} {failed / attempted:>12.4f} "
                     f"{'':>20} {'fraction':>8} {attempted:>4}")
    return lines


def main() -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        run(name, DEFAULT_SEED, config["run_seconds"], trace=False)
    records = current_records()
    for problem in (p for r in records for p in r["problems"]):
        print(f"check failed: {problem}")
    print("\n".join(summarize(records)))
    return 0 if all(not r["problems"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
