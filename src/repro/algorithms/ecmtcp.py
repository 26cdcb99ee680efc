"""ecMTCP (Le et al., IEEE Comm. Letters 2012): energy-aware coupling.

Section IV decomposition:

    psi_r = RTT_r^3 (sum_k x_k)^2 / (|s| min_k RTT_k * w_r * sum_k w_k)

which reduces the per-ACK increase to the closed form

    delta_r = RTT_r / (|s| * min_k RTT_k * sum_k w_k).

The energy-aware traffic shifting of ecMTCP lives entirely inside that
increase rule: per RTT the window growth ``w_r/(n min_k RTT_k sum w)`` is
rate-equalized across paths (unlike LIA, whose per-RTT growth favours the
currently-best path), which drains window share away from paths whose
loss-energy cost is high. The decrease is the standard halving
(``beta = 1/2``), keeping the algorithm TCP-friendly per Condition 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def ecmtcp_increase(rtt, n, min_rtt, total_window):
    """The per-ACK increase ``RTT_r / (n min_k RTT_k sum_k w_k)``."""
    return rtt / (n * min_rtt * total_window)


class EcmtcpController(CongestionController):
    """Energy-aware coupled increases (Section IV decomposition)."""

    name: ClassVar[str] = "ecmtcp"

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += ecmtcp_increase(sf.rtt, self.n_subflows, self.min_rtt(),
                                   self.total_window())

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)
