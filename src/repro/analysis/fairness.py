"""Fairness metric: Jain's index.

TCP-friendliness — Condition 1 of the paper — is ultimately a fairness
statement; this metric quantifies it for simulation outcomes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 means perfectly equal shares; 1/n means one flow holds everything.
    """
    x = np.asarray(list(allocations), dtype=float)
    if x.size == 0:
        raise ConfigurationError("jain_index needs at least one allocation")
    if np.any(x < 0):
        raise ConfigurationError("allocations must be non-negative")
    total = float(np.sum(x))
    if total == 0:
        return 1.0  # nobody got anything: vacuously fair
    return total * total / (len(x) * float(np.sum(x * x)))

