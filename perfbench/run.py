"""Benchmark of the maxsurf CLI on the paper's experiment chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a chain of real ``maxsurf``
CLI invocations (``python3 -m maxsurf.cli`` with ``src`` on PYTHONPATH), each
in a fresh process, one at a time in a closed loop from a single client.
Every run's outputs are checked (see ``workloads.py``).

``--trace 0`` repeats rounds of one set-up (a fresh interpreter importing
the CLI and building or loading the workload's meshes) and one workload run,
so that set-up and workload runs see the same state of the machine, and
reports the end-to-end metrics: medians of set-up time and of wall and CPU
time per workload run, and the highest peak RSS.  ``--trace 1`` repeats
rounds of one untraced and one traced workload run (the outside-in tracer of
``tracer.py``) and reports the per-layer metrics.  Either way a round starts
only while one as long as the last still ends within S seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
the machine, versions, environment and every sample is written under
``.perfbench/records``; ``report.py`` summarizes those records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import PER_LAYER, is_count, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RECORDS = STATE / "records"
REPEATS = STATE / "repeats.json"

PROCESS_TIMEOUT_S = 100.0  # a workload process takes 20 s or less
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB"}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def spawn(argv: list[str], cwd: Path, env: dict, log: str) -> Proc:
    """Run one process to completion; resource use comes from os.wait4."""
    with open(cwd / f"{log}.out", "wb") as out, \
            open(cwd / f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mib=usage.ru_maxrss / 1024.0)  # ru_maxrss is KiB


@dataclass
class Sample:
    """One full workload run: every CLI process of the chain."""

    traced: bool
    input: int  # index into Bench.inputs
    procs: list[Proc] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mib(self) -> float:
        return max(p.rss_mib for p in self.procs)


class Bench:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.inputs(seed)
        self.commands = [workload.commands(p) for p in self.inputs]
        self.env = dict(os.environ)
        self.env.pop("MAXSURF_THREADS", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.workdir = STATE / "work" / f"{workload.name}-{os.getpid()}"

    def helper(self, mode: str, log: str) -> Proc:
        return spawn([sys.executable, str(BENCH / "child.py"), mode,
                      self.workload.name, str(self.workdir)],
                     self.workdir, self.env, log)

    def prepare(self) -> list[str]:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        # compile bytecode once, as an installed package would have it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                        str(BENCH)], stdout=subprocess.DEVNULL)
        if self.helper("prepare", "prepare").code != 0:
            return [f"input generation failed: {self._tail('prepare')}"]
        # untimed warm-up, so that timing starts with warm caches
        if self.helper("setup", "setup").code != 0:
            return [f"set-up failed: {self._tail('setup')}"]
        return []

    def run_once(self, traced: bool, k: int) -> Sample:
        """One workload run on the k-th input set."""
        sample = Sample(traced=traced, input=k)
        commands = self.commands[k]
        span_lists = []
        for i, cmd in enumerate(commands):
            if traced:
                spans = self.workdir / f"spans{i}.json"
                argv = [sys.executable, str(BENCH / "child.py"), "trace",
                        str(spans), *cmd]
            else:
                argv = [sys.executable, "-m", "maxsurf.cli", *cmd]
            proc = spawn(argv, self.workdir, self.env, f"step{i}")
            sample.procs.append(proc)
            if proc.code != 0:
                sample.problems.append(f"{cmd[0]} exited with {proc.code}: "
                                       f"{self._tail(f'step{i}')}")
                return sample
            if traced:
                span_lists.append(json.loads(spans.read_text()))
        stdout = [line for i in range(len(commands))
                  for line in self._read(f"step{i}.out").splitlines()]
        try:
            sample.problems += self.workload.check(
                self.workdir, self.inputs[k], stdout, self.seed)
            sample.digest = self._digest(len(commands))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            sample.problems.append(f"unreadable output: {exc!r}")
        if traced:
            sample.layers = layer_metrics(span_lists)
        return sample

    def _digest(self, steps: int) -> str:
        h = hashlib.sha256()
        names = [f"step{i}.out" for i in range(steps)]
        for name in names + list(self.workload.outputs):
            h.update(name.encode() + b"\0")
            h.update((self.workdir / name).read_bytes())
        return h.hexdigest()

    def _read(self, name: str) -> str:
        return (self.workdir / name).read_text(errors="replace")

    def _tail(self, log: str) -> str:
        lines = self._read(f"{log}.err").strip().splitlines()
        return lines[-1] if lines else "(no message)"

    def check_repeats(self, samples: list[Sample]) -> None:
        """Outputs and counters repeat exactly across runs of one source tree.

        The first clean run of a (sources, commands) key records its output
        digest and, when traced, its counters; later runs must match.
        """
        sources = source_fingerprint()
        known = load_json(REPEATS, {})
        for sample in samples:
            key = f"{sources}:{json.dumps(self.commands[sample.input])}"
            reference = known.setdefault(key, {})
            seen = {"outputs": sample.digest,
                    "counters": {k: v for k, v in sample.layers.items()
                                 if is_count(k)}}
            for what, value in seen.items():
                if not value:
                    continue
                if what not in reference and not sample.problems:
                    reference[what] = value
                if reference.get(what, value) != value:
                    sample.problems.append(f"{what} differ from an earlier "
                                           "run of the same source and seed")
        write_json(REPEATS, known)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    problems = bench.prepare()
    setup_s: list[float] = []
    samples: list[Sample] = []
    start = round_start = time.perf_counter()
    while not problems:
        now = time.perf_counter()
        # start another round only if one as long as the last ends in time,
        # so a run lasts at most about S seconds however slow the machine is
        if samples and (now - start) + (now - round_start) > seconds:
            break
        round_start = now
        if trace:  # alternate, so trace.overhead_s compares like with like;
            # one input set only, so that the counters repeat exactly
            samples.append(bench.run_once(traced=False, k=0))
            samples.append(bench.run_once(traced=True, k=0))
            continue
        proc = bench.helper("setup", "setup")
        if proc.code != 0:
            problems.append(f"set-up failed: {bench._tail('setup')}")
            break
        setup_s.append(proc.wall_s)
        samples.append(bench.run_once(
            traced=False, k=len(samples) % len(bench.inputs)))
    if samples:
        bench.check_repeats(samples)
    bench.cleanup()

    timed = [s for s in samples if s.traced == trace]
    if trace:
        metrics = traced_metrics(samples)
    elif timed and setup_s:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in timed),
            "setup_s": statistics.median(setup_s),
            "cpu_s": statistics.median(s.cpu_s for s in timed),
            "peak_rss_mib": max(s.rss_mib for s in timed),
        }
    else:
        metrics = {}
    return {"problems": problems, "setup_s": setup_s, "samples": samples,
            "metrics": metrics}


def traced_metrics(samples: list[Sample]) -> dict:
    base = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced and s.layers]
    if not traced:
        return {}
    first = traced[0].layers  # counters repeat exactly (check_repeats)
    metrics = {key: (first[key] if is_count(key) else
                     statistics.median(s.layers[key] for s in traced))
               for key in first}
    metrics["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced)
        - statistics.median(s.wall_s for s in base))
    return metrics


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    revision = None
    if (ROOT / ".git").exists():  # the checkout may not be a git repository
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            revision = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "maxsurf_threads_env": os.environ.get("MAXSURF_THREADS"),
        "git_revision": revision,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; writes the run record and returns it."""
    workload = WORKLOADS[workload_name]
    bench = Bench(workload, seed)
    out = measure(bench, seconds, trace)
    samples = out["samples"]
    failed = sum(1 for s in samples if s.problems)
    problems = out["problems"] + [p for s in samples for p in s.problems]
    metrics = out["metrics"]
    units = END_TO_END_UNITS if not trace else \
        {k: unit for k, (unit, _) in PER_LAYER.items()}
    result = {
        "correct": not problems and bool(metrics),
        "attempted": max(len(samples), 1),
        "failed": failed if samples else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    record = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "inputs": bench.inputs,
        "commands": [[["maxsurf", *c] for c in cmds] for cmds in bench.commands],
        "trace": trace,
        "seconds": seconds,
        "source_fingerprint": source_fingerprint(),
        "machine": machine(),
        "child_env": {k: bench.env.get(k)
                      for k in ("MAXSURF_THREADS", "PYTHONPATH")},
        "setup_s": out["setup_s"],
        "samples": [{"traced": s.traced, "input": s.input,
                     "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                     "peak_rss_mib": s.rss_mib, "problems": s.problems,
                     "digest": s.digest}
                    for s in samples],
        "sample_count": sum(1 for s in samples if s.traced == trace),
        "trace_overhead_s": metrics.get("trace.overhead_s"),
        "problems": problems,
        "result": result,
    }
    write_json(RECORDS / f"{workload_name}-seed{seed}-trace{int(trace)}-"
                         f"{time.time_ns()}.json", record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxsurf" / "cli.py").is_file():
        print(f"error: no maxsurf sources under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
