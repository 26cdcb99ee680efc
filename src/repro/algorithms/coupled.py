"""Fully-coupled congestion control (Kelly & Voice; Han et al.).

Section IV decomposition: ``psi_r = RTT_r^2 (sum_k x_k)^2 / (sum_k w_k)^2``,
giving the per-ACK increase ``w_r / (sum_k w_k)^2``. The fully coupled
algorithm treats all windows as one resource-pooled window; its known flaw
(flappiness — all traffic collapses onto the currently-best path) is what
LIA/OLIA were designed to fix, so it serves as a baseline here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def coupled_increase(w, total_window):
    """The per-ACK increase ``w_r / (sum_k w_k)^2``."""
    return w / (total_window * total_window)


class CoupledController(CongestionController):
    """Fully coupled: +w_r/(sum w)^2 per ACK; halve the total window on loss,
    taking the whole decrease out of the losing subflow (bounded below)."""

    name: ClassVar[str] = "coupled"

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += coupled_increase(sf.cwnd, self.total_window())

    def on_loss(self, sf: "TcpSender") -> None:
        total_w = self.total_window()
        sf.cwnd = max(MIN_CWND, sf.cwnd - total_w / 2)
