"""Comparison helpers: savings percentages and series crossovers."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


def relative_saving(baseline: float, candidate: float) -> float:
    """Fractional saving of ``candidate`` relative to ``baseline``.

    Positive means the candidate consumes less (e.g. 0.2 = 20% saving, the
    paper's headline DTS-vs-LIA number).
    """
    if baseline <= 0:
        raise ConfigurationError(f"baseline must be positive, got {baseline}")
    return (baseline - candidate) / baseline


def crossover_points(
    xs: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> List[Tuple[float, float]]:
    """x positions where series ``a`` and ``b`` cross (linear interpolation).

    Returns (x, y) pairs; useful to check "where does MPTCP start beating
    TCP"-style claims.
    """
    if not (len(xs) == len(a) == len(b)):
        raise ConfigurationError("xs, a, b must have equal length")
    out: List[Tuple[float, float]] = []
    d0 = 0.0
    for i in range(len(xs)):
        d1 = a[i] - b[i]
        if d1 == 0:  # a touching point, the last x included
            out.append((xs[i], a[i]))
        elif d0 * d1 < 0:
            t = d0 / (d0 - d1)
            x = xs[i - 1] + t * (xs[i] - xs[i - 1])
            y = a[i - 1] + t * (a[i] - a[i - 1])
            out.append((x, y))
        d0 = d1
    return out
