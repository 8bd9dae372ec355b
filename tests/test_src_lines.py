"""The tracked line counts of the package sources, by tools/src_lines.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_code_lines_are_counted_within_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True).stdout
    counts = {key: int(value)
              for key, value in map(str.split, out.splitlines())}
    assert list(counts) == ["total", "code"]
    assert 0 < counts["code"] <= counts["total"]


def test_docstrings_comments_and_blank_lines_are_not_code():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # trailing


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """not a docstring"""
'''
    # X's two lines, class A, def f and its return
    assert module.count(source) == (15, 5)
