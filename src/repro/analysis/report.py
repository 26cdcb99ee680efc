"""Plain-text report formatting.

The figure modules cannot draw the paper's figures in a terminal, so each
renders the figure's underlying rows/series as an aligned ASCII table; the
claims ledger embeds those tables in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence


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

