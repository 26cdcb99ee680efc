"""Per-cohort view of fluid-simulation state with user-wise reductions.

Subflows belonging to one congestion-control *cohort* (all connections
running the same algorithm) are stored contiguously, grouped by user
(connection), so per-user aggregates — sum of rates, max window, etc. —
are single ``np.maximum.reduceat`` / ``np.add.reduceat`` calls, and a
per-user value goes back to subflow shape by ``np.repeat`` over the block
sizes, with no gather.

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
    #: Optional precomputed rates w/rtt: the engine already divides the
    #: full vectors once per step, so cohort views can reuse that result
    #: instead of re-dividing per cohort.
    x: Optional[np.ndarray] = None
    #: Cached subflows per user and :meth:`user_count` result — purely
    #: structural (they depend only on the grouping arrays), so safe to
    #: cache per instance even when the instance is reused across steps.
    _user_sizes: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)
    _user_count: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    @property
    def x_pkts(self) -> np.ndarray:
        """Rates x_r = w_r / RTT_r in segments/second."""
        if self.x is not None:
            return self.x
        return self.w / self.rtt

    # ----------------------------------------------------- user reductions

    def _broadcast(self, per_user: np.ndarray) -> np.ndarray:
        """One value per user, repeated over that user's subflow block."""
        if self._user_sizes is None:
            self._user_sizes = np.diff(self.user_starts, append=len(self.w))
        return np.repeat(per_user, self._user_sizes)

    def user_sum(self, v: np.ndarray) -> np.ndarray:
        """Per-user sums, broadcast back to subflow shape."""
        return self._broadcast(np.add.reduceat(v, self.user_starts))

    def user_max(self, v: np.ndarray) -> np.ndarray:
        """Per-user maxima, broadcast back to subflow shape."""
        return self._broadcast(np.maximum.reduceat(v, self.user_starts))

    def user_min(self, v: np.ndarray) -> np.ndarray:
        """Per-user minima, broadcast back to subflow shape."""
        return self._broadcast(np.minimum.reduceat(v, self.user_starts))

    def user_count(self) -> np.ndarray:
        """Per-user subflow counts |s|, broadcast back to subflow shape."""
        if self._user_count is None:
            counts = np.add.reduceat(np.ones_like(self.w), self.user_starts)
            self._user_count = self._broadcast(counts)
        return self._user_count
