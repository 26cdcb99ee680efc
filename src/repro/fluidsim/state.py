"""Per-cohort view of fluid-simulation state with user-wise reductions.

Subflows belonging to one congestion-control *cohort* (all connections
running the same algorithm) are stored contiguously, grouped by user
(connection), so per-user aggregates — sum of rates, max window, etc. —
are single ``np.maximum.reduceat`` / ``np.add.reduceat`` calls.

State arrays are **read-only** from the algorithms' point of view: the
engine hands out *views* into its persistent buffers and reuses one
:class:`CohortState` instance for an entire run — an adapter that wrote
into ``w``/``rtt``/… would corrupt the integrator state. All in-tree
adapters honour this; new ones must too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class CohortState:
    """Arrays for one cohort's subflows (views into the engine's arrays)."""

    #: Congestion windows, segments.
    w: np.ndarray
    #: Smoothed RTTs, seconds.
    rtt: np.ndarray
    #: Propagation RTT floors, seconds.
    base_rtt: np.ndarray
    #: Per-path loss probability currently experienced.
    loss: np.ndarray
    #: Queueing delay along the path, seconds.
    queueing: np.ndarray
    #: Number of switch-to-switch links on each subflow's path.
    switch_hops: np.ndarray
    #: Fraction of the path marking ECN (for DCTCP).
    ecn_marked: np.ndarray
    #: Start offset of each user's subflow block (for reduceat).
    user_starts: np.ndarray
    #: User index of every subflow (0..n_users-1, non-decreasing).
    user_of: np.ndarray
    #: Optional precomputed rates w/rtt: the engine already divides the
    #: full vectors once per step, so cohort views can reuse that result
    #: instead of re-dividing per cohort.
    x: Optional[np.ndarray] = None
    #: Cached :meth:`user_count` result — purely structural (depends only
    #: on the grouping arrays), so safe to cache per instance even when
    #: the instance is reused across steps.
    _user_count: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    @property
    def x_pkts(self) -> np.ndarray:
        """Rates x_r = w_r / RTT_r in segments/second."""
        if self.x is not None:
            return self.x
        return self.w / self.rtt

    # ----------------------------------------------------- user reductions

    def user_sum(self, v: np.ndarray) -> np.ndarray:
        """Per-user sums, broadcast back to subflow shape."""
        sums = np.add.reduceat(v, self.user_starts)
        return sums[self.user_of]

    def user_max(self, v: np.ndarray) -> np.ndarray:
        """Per-user maxima, broadcast back to subflow shape."""
        maxes = np.maximum.reduceat(v, self.user_starts)
        return maxes[self.user_of]

    def user_min(self, v: np.ndarray) -> np.ndarray:
        """Per-user minima, broadcast back to subflow shape."""
        mins = np.minimum.reduceat(v, self.user_starts)
        return mins[self.user_of]

    def user_count(self) -> np.ndarray:
        """Per-user subflow counts |s|, broadcast back to subflow shape."""
        if self._user_count is None:
            counts = np.add.reduceat(np.ones_like(self.w), self.user_starts)
            self._user_count = counts[self.user_of]
        return self._user_count
