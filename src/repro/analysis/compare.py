"""Comparison helpers: savings percentages."""

from __future__ import annotations

from repro.errors import ConfigurationError


def relative_saving(baseline: float, candidate: float) -> float:
    """Fractional saving of ``candidate`` relative to ``baseline``.

    Positive means the candidate consumes less (e.g. 0.2 = 20% saving, the
    paper's headline DTS-vs-LIA number).
    """
    if baseline <= 0:
        raise ConfigurationError(f"baseline must be positive, got {baseline}")
    return (baseline - candidate) / baseline

