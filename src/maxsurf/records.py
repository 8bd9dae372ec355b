"""Plain-text serialization helpers shared by the modules.

Every float is written with 17 significant digits so that files round-trip
bit for bit and repeated runs are byte identical.
"""

from __future__ import annotations

import warnings

import numpy as np

FLOAT_FMT = "%.17g"
# %-conversions that print a dtype kind's values exactly as fmt does
_KIND_FMT = {"b": "%d", "i": "%d", "u": "%d", "f": FLOAT_FMT}
ROW_BLOCK = 8192  # rows formatted per write


def fmt(value) -> str:
    """Format a scalar for an output file."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def record_lines(items) -> list[str]:
    """The lines of a flat key=value record, in the given order."""
    return [f"{key}={fmt(value)}" for key, value in items]


def write_record(path, items) -> None:
    """Write a flat key=value record, one pair per line, in the given order."""
    with open(path, "w") as fh:
        fh.write("\n".join(record_lines(items)) + "\n")


def write_rows(fh, columns, sep: str = ",") -> None:
    """Write parallel columns to an open text file, one line per row.

    Each value is written as fmt writes it.  Numeric and boolean columns
    are formatted a row at a time with one ``%d`` or ``%.17g`` conversion
    per column, other columns value by value through fmt; rows go out in
    blocks so that memory stays flat for long columns.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    row = sep.join(_KIND_FMT.get(c.dtype.kind, "%s") for c in cols) + "\n"
    for start in range(0, len(cols[0]) if cols else 0, ROW_BLOCK):
        block = [c[start:start + ROW_BLOCK] for c in cols]
        values = [b.tolist() if b.dtype.kind in _KIND_FMT else [fmt(x) for x in b]
                  for b in block]
        fh.write("".join([row % r for r in zip(*values)]))


def read_rows(fh, ncol: int, what: str, delimiter=None, max_rows=None,
              dtype=float) -> np.ndarray:
    """Parse the next rows of an open text file into an (n, ncol) array.

    ``delimiter`` None splits on whitespace; blank lines are skipped and
    ``#`` has no special meaning.  With ``max_rows`` the handle is left just
    after the last row read, and the caller checks how many there were.
    Ragged rows and unparsable tokens raise ValueError naming ``what``.
    """
    try:
        with warnings.catch_warnings():
            # running out of lines is reported by the caller's row count
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, dtype=dtype, delimiter=delimiter,
                              comments=None, ndmin=2, max_rows=max_rows)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if len(data) == 0:
        return np.empty((0, ncol), dtype=dtype)
    if data.shape[1] != ncol:
        raise ValueError(f"{what}: rows have {data.shape[1]} fields, "
                         f"expected {ncol}")
    return data


def write_csv(path, header: str, columns) -> None:
    """Write columns (sequence of 1d arrays, parallel) under a fixed header."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_rows(fh, columns)


def read_csv(path, header: str):
    """Read a CSV written by write_csv; checks the header verbatim."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"expected header '{header}', found '{first}'")
        return read_rows(fh, len(header.split(",")), str(path), delimiter=",")
