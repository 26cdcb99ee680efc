"""LIA — Linked Increases Algorithm (Wischik et al., NSDI'11; RFC 6356).

The MPTCP Linux kernel default. Section IV decomposition:
``psi_r = (max_k w_k/RTT_k^2) * RTT_r^2 / w_r``, i.e. the per-ACK increase

    delta_r = min( max_k(w_k/RTT_k^2) / (sum_k w_k/RTT_k)^2 , 1/w_r )

where the ``min`` is RFC 6356's TCP-friendliness cap (never more aggressive
than Reno on any one path). LIA is TCP-friendly by construction
(Condition 1) but not Pareto-optimal, which is exactly the gap the paper's
Fig. 6 experiment exposes against OLIA.

The array form of the increase, ``lia_increase_array``, is a batch engine
kernel and lives in :mod:`repro.net.batch.model`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


class LiaController(CongestionController):
    """RFC 6356 linked increases; halve the subflow window on loss."""

    name: ClassVar[str] = "lia"

    def alpha_increase(self, sf: "TcpSender") -> float:
        """The uncapped coupled increase term for one ACK on ``sf``."""
        best = max(s.cwnd / (s.rtt * s.rtt) for s in self.subflows)
        total_rate = self.total_rate()
        return best / (total_rate * total_rate)

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += min(self.alpha_increase(sf), 1.0 / sf.cwnd)

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)
