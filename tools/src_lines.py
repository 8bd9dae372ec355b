"""Print the tracked line counts of the package sources.

Usage: ``python3 tools/src_lines.py [DIR]`` (DIR defaults to the
``src/maxsurf`` beside this script's parent).  Prints two lines:

    total <n>   every line of DIR/*.py, as ``wc -l`` counts them
    code <n>    the lines left without module, class and function
                docstrings, comments and blank lines

A line counts as code when a token other than a comment, a newline or an
indent starts, ends or runs through it, outside the docstrings.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "maxsurf"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module, classes and
    functions in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total, code) line counts of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def main(argv: list[str]) -> int:
    folder = Path(argv[0]) if argv else DEFAULT_DIR
    total = code = 0
    for path in sorted(folder.glob("*.py")):
        t, c = count(path.read_text())
        total += t
        code += c
    print(f"total {total}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
