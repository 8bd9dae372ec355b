"""Child-process entry points of the benchmark.

    python3 child.py prepare WORKLOAD WORKDIR
        untimed input generation (the conjugate-rect mesh file)
    python3 child.py setup WORKLOAD WORKDIR
        fresh-interpreter set-up: import maxsurf.cli, then build or load the
        workload's meshes with the calls its CLI processes make
    python3 child.py trace SPANS_JSON CLI_ARG...
        run ``maxsurf`` CLI_ARG... with the outside-in tracer installed and
        write the spans to SPANS_JSON; exits with the CLI's exit code

``maxsurf`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        code = tracer.run_cli(rest[1:])
        Path(rest[0]).write_text(json.dumps(tracer.spans))
        return code

    import maxsurf.cli  # noqa: F401  (set-up time includes the CLI import)
    import maxsurf
    from workloads import WORKLOADS

    workload, workdir = WORKLOADS[rest[0]], Path(rest[1])
    if mode == "prepare":
        workload.prepare(maxsurf, workdir)
    elif mode == "setup":
        workload.build_meshes(maxsurf, workdir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
