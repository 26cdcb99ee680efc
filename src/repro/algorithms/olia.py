"""OLIA — Opportunistic Linked Increases (Khalili et al., CoNEXT'12).

The Pareto-optimal algorithm the paper's Fig. 6 shows to be the most
energy-efficient of the four TCP-friendly kernel algorithms under shared
bottlenecks. Per-ACK increase on subflow r:

    delta_r = (w_r/RTT_r^2) / (sum_k w_k/RTT_k)^2  +  alpha_r / w_r

The first (coupled) term is the paper's simplified Section IV decomposition
``psi_r = 1``; the second (opportunistic) term moves window between the
*best* paths — those maximizing ``l_r^2 / RTT_r``, where ``l_r`` is the
smoothed inter-loss interval in segments — and the paths that currently
hold the *largest* windows:

- paths in B \\ M (best but small-window) get ``alpha_r = +1/(n |B\\M|)``,
- paths in M (largest-window) get ``alpha_r = -1/(n |M|)`` when B\\M is
  non-empty,
- everything else gets 0.

:func:`olia_coupled_term` and :func:`olia_increase` are each written once:
``on_ack`` calls them with floats, the fluid adapter with arrays.  What the
two hosts do *not* share is ``alpha_r`` itself: the sender estimates path
quality from inter-loss intervals, the fluid engine from loss rates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, List

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def olia_coupled_term(w, rtt, total_rate):
    """Section IV's simplified OLIA, ``psi_r = 1``: the Pareto-optimal
    coupled term ``(w_r/RTT_r^2) / (sum_k x_k)^2`` that DTS scales."""
    return (w / (rtt * rtt)) / (total_rate * total_rate)


def olia_increase(w, rtt, total_rate, alpha):
    """The per-ACK increase: the coupled term plus ``alpha_r / w_r``."""
    return olia_coupled_term(w, rtt, total_rate) + alpha / w


class _LossIntervalEstimator:
    """Tracks OLIA's l_r: segments ACKed in the current and previous
    inter-loss intervals; l_r is the larger of the two."""

    __slots__ = ("current", "previous")

    def __init__(self) -> None:
        self.current = 0
        self.previous = 0

    def on_ack(self) -> None:
        self.current += 1

    def on_loss(self) -> None:
        self.previous = self.current
        self.current = 0

    @property
    def value(self) -> float:
        return float(max(self.current, self.previous, 1))


class OliaController(CongestionController):
    """Opportunistic linked increases; halve the subflow window on loss."""

    name: ClassVar[str] = "olia"

    def __init__(self) -> None:
        super().__init__()
        self._loss_intervals: Dict[int, _LossIntervalEstimator] = {}

    def attach(self, subflows) -> None:
        super().attach(subflows)
        self._loss_intervals = {id(s): _LossIntervalEstimator() for s in subflows}

    # ------------------------------------------------------------- path sets

    def _quality(self, sf: "TcpSender") -> float:
        """OLIA path quality l_r^2 / RTT_r (proportional to the square of the
        rate a Reno flow would get on the path)."""
        l = self._loss_intervals[id(sf)].value
        return l * l / sf.rtt

    def _best_paths(self) -> List["TcpSender"]:
        qualities = {id(s): self._quality(s) for s in self.subflows}
        best = max(qualities.values())
        return [s for s in self.subflows if qualities[id(s)] >= best * (1 - 1e-12)]

    def _max_window_paths(self) -> List["TcpSender"]:
        biggest = max(s.cwnd for s in self.subflows)
        return [s for s in self.subflows if s.cwnd >= biggest * (1 - 1e-12)]

    def alpha(self, sf: "TcpSender") -> float:
        """The opportunistic redistribution term alpha_r for subflow ``sf``."""
        if self.n_subflows == 1:
            return 0.0
        max_w = self._max_window_paths()
        best = self._best_paths()
        max_ids = {id(s) for s in max_w}
        collected = [s for s in best if id(s) not in max_ids]  # B \ M
        n = self.n_subflows
        if collected:
            if any(s is sf for s in collected):
                return 1.0 / (n * len(collected))
            if id(sf) in max_ids:
                return -1.0 / (n * len(max_w))
        return 0.0

    # ------------------------------------------------------------ callbacks

    def on_ack(self, sf: "TcpSender") -> None:
        self._loss_intervals[id(sf)].on_ack()
        delta = olia_increase(sf.cwnd, sf.rtt, self.total_rate(), self.alpha(sf))
        sf.cwnd = max(MIN_CWND, sf.cwnd + delta)

    def on_loss(self, sf: "TcpSender") -> None:
        self._loss_intervals[id(sf)].on_loss()
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)

    def on_timeout(self, sf: "TcpSender") -> None:
        self._loss_intervals[id(sf)].on_loss()
