"""Time-series utilities for trace figures (Fig. 8's LIA vs DTS traces)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def bin_series(
    times: Sequence[float],
    values: Sequence[float],
    bin_width: float,
) -> Tuple[List[float], List[float]]:
    """Average ``values`` into fixed-width time bins; returns (centres, means)."""
    if bin_width <= 0:
        raise ConfigurationError(f"bin_width must be positive, got {bin_width}")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ConfigurationError("times and values must align")
    if t.size == 0:
        return [], []
    edges = np.arange(t.min(), t.max() + bin_width, bin_width)
    idx = np.digitize(t, edges) - 1
    centres: List[float] = []
    means: List[float] = []
    # The last edge opens a bin too: it can sit at (or round to) t.max().
    for b in range(len(edges)):
        mask = idx == b
        if np.any(mask):
            centres.append(float(edges[b] + bin_width / 2))
            means.append(float(np.mean(v[mask])))
    return centres, means

