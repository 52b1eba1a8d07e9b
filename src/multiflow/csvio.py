"""Deterministic CSV emission plus a minimal SVG line plotter.

Every file starts with a versioned schema comment so downstream tooling can
detect format drift.  Floats are written with ``repr`` (shortest round-trip
form), newlines are always ``\\n``: identical inputs produce byte-identical
files on every platform and worker count.  Data are handed over column by
column, and each column is formatted one block of lines at a time.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from typing import Iterable, Sequence

import numpy as np

CSV_VERSION = "multiflow-csv v1"
# Lines formatted and written together: few writes, and a bounded buffer.
_LINES_PER_WRITE = 4096
# Size of every SVG chart, in pixels.
_CHART_WIDTH, _CHART_HEIGHT = 720, 440

__all__ = ["CSV_VERSION", "write_csv", "format_cell", "write_line_chart"]


def format_cell(value) -> str:
    """One metadata value as text, by the same rules as the data columns."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _column_cells(column) -> Iterable[str]:
    """The text cells of one column, made lazily in one pass over it.

    An array is turned into Python objects ``_LINES_PER_WRITE`` rows at a
    time, so a write holds one block of them per column, not the column.
    """
    if isinstance(column, str):
        return repeat(column)
    if not isinstance(column, np.ndarray):
        return column  # cells already formatted
    kind = column.dtype.kind
    if kind == "b":
        convert = ("false", "true").__getitem__
    elif kind == "f":
        convert = repr
    elif kind in "iu":
        convert = str
    else:
        raise TypeError(f"cannot write a column of dtype {column.dtype}")
    blocks = (column[lo: lo + _LINES_PER_WRITE].tolist()
              for lo in range(0, column.size, _LINES_PER_WRITE))
    return map(convert, chain.from_iterable(blocks))


def write_csv(
    path: str,
    kind: str,
    header: Sequence[str],
    columns: Sequence,
    meta: dict | None = None,
    footer: dict | None = None,
) -> None:
    """Write a schema-versioned CSV from whole columns.

    Each entry of ``columns`` is a 1-d numpy array (float, int or bool), a
    ``str`` written on every row, or an iterable of already formatted cells;
    at least one must be an array, and the arrays set the number of rows.
    ``meta`` becomes ``# key=value`` header comments; ``footer`` becomes the
    same after the data rows (for records derived from them, like fits).
    """
    shapes = {c.shape for c in columns if isinstance(c, np.ndarray)}
    if len(shapes) != 1 or len(min(shapes)) != 1:
        raise ValueError(f"columns need one common 1-d array shape, got {sorted(shapes)}")
    head = [f"# {CSV_VERSION} {kind}"]
    head += [f"# {key}={format_cell(value)}" for key, value in (meta or {}).items()]
    head.append(",".join(header))
    tail = [f"# {key}={format_cell(value)}" for key, value in (footer or {}).items()]
    rows = map(",".join, zip(*map(_column_cells, columns)))
    lines = chain(head, rows, tail)
    with open(path, "w", newline="\n") as fh:
        while block := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\n".join(block) + "\n")


def _scale(values, log: bool, lo: float, hi: float, out_lo: float, out_hi: float):
    def transform(v: float) -> float:
        return math.log10(v) if log else v

    t_lo, t_hi = transform(lo), transform(hi)
    span = (t_hi - t_lo) or 1.0
    return [out_lo + (transform(v) - t_lo) / span * (out_hi - out_lo) for v in values]


def write_line_chart(
    path: str,
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Tiny dependency-free SVG polyline chart (data emission companion)."""
    width, height, margin = _CHART_WIDTH, _CHART_HEIGHT, 50
    xs = list(xs)
    all_y = [y for _, ys in series for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if logy:
        y_lo = max(y_lo, 1e-300)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin // 2}" width="{width - 2 * margin}" '
        f'height="{height - margin - margin // 2}" fill="none" stroke="#444"/>',
    ]
    px = _scale(xs, logx, x_lo, x_hi, margin, width - margin)
    for i, (label, ys) in enumerate(series):
        py = _scale(ys, logy, y_lo, y_hi, height - margin, margin // 2)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{margin + 8}" y="{margin // 2 + 16 + 14 * i}" fill="{color}" '
            f'font-size="12">{label}</text>'
        )
    parts.append(
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" fill="#222" '
        f'text-anchor="middle">{"log10 " if logx else ""}sigma</text>'
    )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
