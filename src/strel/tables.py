"""Comma-separated tables with a self-describing config echo.

Every artifact starts with ``# key=value`` comment lines echoing the run
configuration, sorted by key, then a header row, then data rows.

Tables are written column by column (:func:`write_columns`).  Each column is
formatted once, as a whole: a float column (a floating-point array, or
Python floats) cell by cell with ``repr``, which is the shortest text that
parses back to the same float, and every other cell with ``str``.  A NumPy
column goes through ``tolist`` first, so its cells are Python ints and
floats.  Rows are formatted and written ``CHUNK_ROWS`` at a time, so the
text held in memory does not grow with the table.  :func:`write_table`
takes rows and writes them through the same formatter.  A table is written
to ``<path>.tmp`` and renamed over ``path`` (``tensorio.write_atomic``), so
a failed write leaves the earlier table.

:func:`read_columns` parses a table body with one ``np.loadtxt`` call into
typed columns (only when that call fails does it parse line by line, to
name the first bad line); :func:`read_table` returns the cells as strings.
"""

from __future__ import annotations

import re
import warnings
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .tensorio import write_atomic

CHUNK_ROWS = 4096


def _cells(column) -> list[str]:
    """The text of each cell of one column."""
    if isinstance(column, np.ndarray):
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return [repr(v) if isinstance(v, float) else str(v) for v in column]


def write_columns(
    path,
    header: Sequence[str],
    columns: Sequence[Sequence],
    echo: Mapping[str, object] | None = None,
) -> None:
    """Write ``columns`` (arrays or sequences of equal length, one per header
    name) under the config echo and the header."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    with write_atomic(path, "w", encoding="utf-8") as fh:
        for key in sorted(echo or {}):
            fh.write(f"# {key}={echo[key]}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(c[lo : lo + CHUNK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


def write_table(
    path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    echo: Mapping[str, object] | None = None,
) -> None:
    """Write ``rows``, each a sequence of one cell per header name."""
    columns = list(zip(*rows, strict=True)) or [()] * len(header)
    write_columns(path, header, columns, echo)


@contextmanager
def _text(path):
    """``path`` open as UTF-8 text; a byte that is not UTF-8 is a
    ``ValidationError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text") from exc


def _skip_to_body(fh) -> list[str]:
    """Advance ``fh`` past the config echo and the header; return the header."""
    for line in fh:
        line = line.rstrip("\n")
        if line and not line.startswith("#"):
            return line.split(",")
    return []


def _loadtxt(lines, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)


def _reason(exc: Exception) -> str:
    """numpy's message without its row number, which counts data rows only
    (from 0 for a bad cell, from 1 for a wrong cell count), and without the
    advice on its own arguments after a ';'."""
    return re.sub(r" at row \d+", "", str(exc).split(";")[0])


def _first_bad_line(path, dtype: np.dtype) -> str | None:
    """``line <n>: <reason>`` for the first body line that does not parse,
    numbered from 1 over the whole file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, 1)
        for _, line in lines:  # the echo, then the header
            if line.rstrip("\n") and not line.startswith("#"):
                break
        for number, line in lines:
            try:
                _loadtxt([line], dtype)
            except (ValueError, OverflowError) as exc:
                return f"line {number}: {_reason(exc)}"
    return None


def read_columns(path, names: Sequence[str], dtypes: Sequence) -> tuple[np.ndarray, ...]:
    """The columns of a table whose header is ``names``, parsed as ``dtypes``.

    A header-only table gives empty columns.  A missing or extra cell, or a
    cell that does not parse as its column's dtype, is a ``ValidationError``
    that names the file line of the first bad row.
    """
    dtype = np.dtype(list(zip(names, dtypes)))
    with _text(path) as fh:
        header = _skip_to_body(fh)
        if header != list(names):
            raise ValidationError(f"{path}: header {','.join(header)!r} is not {','.join(names)!r}")
        try:
            body = _loadtxt(fh, dtype)
        except (ValueError, OverflowError) as exc:
            detail = _first_bad_line(path, dtype) or _reason(exc)
            raise ValidationError(f"{path}: {detail}") from exc
    return tuple(body[name] for name in names)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a table back as its header and rows of cell strings."""
    with _text(path) as fh:
        header = _skip_to_body(fh)
        lines = (line.rstrip("\n") for line in fh)
        return header, [line.split(",") for line in lines if line and not line.startswith("#")]
