"""The names that the benchmark's tracer looks up stay in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer wraps each (module, attr) with getattr at install time, so
    # one missing name breaks every traced benchmark run
    traced = load_tracer().TRACED
    assert traced
    missing = [f"maxsurf.{home}.{attr}" for home, attr in traced
               if not callable(getattr(importlib.import_module(
                   f"maxsurf.{home}"), attr, None))]
    assert missing == []
