"""The names that the benchmark's tracer looks up stay in the package, and
every name the package exports has a reader outside the tests."""

import ast
import importlib
import importlib.util
from pathlib import Path

from maxsurf import duality

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxsurf"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def names_read(path):
    """Names a file loads and attributes it reads."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_package_export_has_a_reader_outside_the_tests():
    # code that no pipeline reads does not stay in the package for the tests
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert exported
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    read = set().union(*map(names_read, readers))
    # two tables look functions up by name, and no other string is a read:
    # the conjugates of each direction, and the functions the tracer wraps
    by_direction = {name for pair in duality.DIRECTIONS.values()
                    for name in pair}
    traced = {attr for _, attr in load_tracer().TRACED}
    assert sorted(exported - read - by_direction - traced) == []
    # round_trip_error is read only by its TRACED entry: a change that drops
    # the entry moves the function to tests/oracles.py
    assert sorted(exported - read - by_direction) == ["round_trip_error"]
