"""Plain-text report formatting.

The figure modules cannot draw the paper's figures in a terminal, so each
renders the figure's underlying rows/series as an aligned ASCII table; the
claims ledger embeds those tables in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Number = Union[int, float]


def _fmt(value, width: int) -> str:
    if isinstance(value, float):
        if value == 0 or 0.01 <= abs(value) < 1e6:
            return f"{value:>{width}.3f}"
        return f"{value:>{width}.3e}"
    return f"{value!s:>{width}}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned ASCII table."""
    widths = [max(len(h), 12) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(_fmt(cell, 0).strip()))
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(_fmt(cell, w) for cell, w in zip(row, widths)) for row in rows
    ]
    return "\n".join([head, sep, *body])


def format_series(name: str, xs: Sequence[Number], ys: Sequence[Number]) -> str:
    """A one-series 'figure': x/y pairs as two columns."""
    return format_table([f"{name}.x", f"{name}.y"], list(zip(xs, ys)))


def format_grouped(
    group_key: str,
    series: Dict[str, Dict[Number, Number]],
) -> str:
    """Multiple named series sharing an x axis, one column per series."""
    xs = sorted({x for s in series.values() for x in s})
    headers = [group_key, *series.keys()]
    rows: List[List] = []
    for x in xs:
        rows.append([x, *[series[name].get(x, float("nan")) for name in series]])
    return format_table(headers, rows)
