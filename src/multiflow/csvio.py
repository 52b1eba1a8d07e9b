"""Deterministic CSV emission plus a minimal SVG line plotter.

Every file starts with a versioned schema comment so downstream tooling can
detect format drift.  Floats are written with ``repr`` (shortest round-trip
form), newlines are always ``\\n``: identical inputs produce byte-identical
files on every platform and worker count.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

CSV_VERSION = "multiflow-csv v1"

__all__ = ["CSV_VERSION", "write_csv", "format_cell", "write_line_chart"]


def format_cell(value) -> str:
    kind = type(value)  # exact built-in types first: the cells of large files
    if kind is float:
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(
    path: str,
    kind: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    meta: dict | None = None,
    footer: dict | None = None,
) -> None:
    """Write a schema-versioned CSV.

    ``meta`` becomes ``# key=value`` header comments; ``footer`` becomes the
    same after the data rows (for records derived from them, like fits).
    """
    lines = [f"# {CSV_VERSION} {kind}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={format_cell(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(format_cell, row)))
    for key, value in (footer or {}).items():
        lines.append(f"# {key}={format_cell(value)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    width: int = 720,
    height: int = 440,
) -> None:
    """Tiny dependency-free SVG polyline chart (data emission companion)."""
    margin = 50
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
