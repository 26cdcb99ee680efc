"""Balia — Balanced Linked Adaptation (Peng, Walid, Hwang & Low).

Section IV decomposition (with ``alpha_r = max_k x_k / x_r``):

    psi_r = 2/5 + alpha_r/2 + alpha_r^2/10 = ((1+alpha_r)/2) ((4+alpha_r)/5)

Per-ACK increase ``psi_r * w_r / (RTT_r^2 (sum_k x_k)^2)``; on loss the
window is cut by ``w_r/2 * min(alpha_r, 3/2)``, Balia's balanced decrease
that keeps the algorithm responsive without LIA's unfriendliness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def balia_psi(alpha):
    """``psi_r`` at ``alpha_r = max_k x_k / x_r``."""
    return ((1 + alpha) / 2) * ((4 + alpha) / 5)


def balia_increase(w, rtt, max_rate, total_rate):
    """The per-ACK increase ``psi_r w_r / (RTT_r^2 (sum_k x_k)^2)``, given
    ``max_k x_k`` and ``sum_k x_k`` over the connection."""
    psi = balia_psi(max_rate / (w / rtt))
    return psi * w / (rtt * rtt * total_rate * total_rate)


class BaliaController(CongestionController):
    """Balanced linked adaptation increase/decrease."""

    name: ClassVar[str] = "balia"

    def _alpha(self, sf: "TcpSender") -> float:
        x_r = sf.cwnd / sf.rtt
        return self.max_rate() / x_r

    def psi(self, sf: "TcpSender") -> float:
        """The traffic-shifting parameter psi_r at the current state."""
        return balia_psi(self._alpha(sf))

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += balia_increase(sf.cwnd, sf.rtt, self.max_rate(), self.total_rate())

    def on_loss(self, sf: "TcpSender") -> None:
        a = self._alpha(sf)
        sf.cwnd = max(MIN_CWND, sf.cwnd - (sf.cwnd / 2) * min(a, 1.5))
