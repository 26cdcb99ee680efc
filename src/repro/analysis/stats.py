"""Box-whisker statistics matching the paper's Fig. 6 convention.

The paper plots "minimum, 25th percentile Q1, median, 75th percentile Q3,
and maximum, as well as the outliers out of the range between
Q1 - 1.5*(Q3-Q1) and Q3 + 1.5*(Q3-Q1)" — i.e. Tukey boxes. The whiskers
here are the most extreme samples *inside* the Tukey fences; anything
outside is an outlier.

Standard library only, and bit-equal to the numpy expressions the module
used before the packet figures left the numpy tier (``np.percentile``'s
default linear method and ``np.mean``) on finite samples:
``tests/test_analysis.py`` compares them field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError


@dataclass
class BoxStats:
    """Five-number summary plus Tukey outliers."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: List[float]
    mean: float
    n: int


def _pairwise_sum(data: Sequence[float], start: int, stop: int) -> float:
    """``np.add.reduce`` over ``data[start:stop]``, in numpy's order: eight
    strided accumulators folded as a tree, sequential below 8 elements,
    halved (on a multiple of 8) above 128."""
    n = stop - start
    if n < 8:
        total = 0.0
        for value in data[start:stop]:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return (_pairwise_sum(data, start, start + half)
                + _pairwise_sum(data, start + half, stop))
    r = list(data[start:start + 8])
    tail = stop - n % 8
    for i in range(start + 8, tail, 8):
        for j in range(8):
            r[j] += data[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in data[tail:stop]:
        total += value
    return total


def _mean(data: Sequence[float]) -> float:
    return _pairwise_sum(data, 0, len(data)) / len(data)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(ordered, 100 * q)``: Hyndman & Fan's method 7 at
    virtual index ``(n - 1) * q``, interpolated from whichever neighbour
    is nearer (numpy's two-sided lerp)."""
    virtual = (len(ordered) - 1) * q
    below = math.floor(virtual)
    if below + 1 >= len(ordered):
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    gamma = virtual - below
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def _samples(samples: Sequence[float], who: str) -> List[float]:
    data = [float(v) for v in samples]
    if not data:
        raise ConfigurationError(f"{who} needs at least one sample")
    return data


def box_stats(samples: Sequence[float]) -> BoxStats:
    """Compute the paper's box-whisker summary for a sample set."""
    data = _samples(samples, "box_stats")
    ordered = sorted(data)
    q1, med, q3 = (_percentile(ordered, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = [v for v in ordered if low_fence <= v <= high_fence] or ordered
    return BoxStats(
        minimum=ordered[0],
        q1=q1,
        median=med,
        q3=q3,
        maximum=ordered[-1],
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=[v for v in ordered if v < low_fence or v > high_fence],
        mean=_mean(data),
        n=len(data),
    )

