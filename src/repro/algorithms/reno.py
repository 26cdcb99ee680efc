"""Classic single-path TCP Reno (AIMD), the paper's TCP baseline."""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def reno_increase(w):
    """The per-ACK increase ``1/w``: one segment per window of ACKs."""
    return 1.0 / w


class RenoController(CongestionController):
    """AIMD: +1/w per ACK in congestion avoidance, halve on loss.

    When used on a multi-subflow connection this deliberately runs
    *uncoupled* Reno on every subflow — the "regular TCP on each path"
    straw man the coupled algorithms are designed to beat.
    """

    name: ClassVar[str] = "reno"

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += reno_increase(sf.cwnd)

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)
