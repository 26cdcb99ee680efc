"""EWTCP (Honda et al., PFLDNeT'09): equally-weighted TCP per subflow.

Section IV decomposition: ``psi_r = (sum_k x_k)^2 / (x_r^2 sqrt(|s|))``,
which reduces the per-ACK increase to ``a / w_r`` with ``a = 1/sqrt(n)`` —
each subflow runs Reno scaled by a fixed weight, with no traffic shifting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro import _scalar
from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def ewtcp_increase(xp, w, n):
    """The per-ACK increase ``a/w`` with ``a = 1/sqrt(n)`` on ``n`` subflows."""
    return (1.0 / xp.sqrt(n)) / w


class EwtcpController(CongestionController):
    """Weighted Reno: +a/w per ACK with a = 1/sqrt(n); halve on loss."""

    name: ClassVar[str] = "ewtcp"

    def on_ack(self, sf: "TcpSender") -> None:
        sf.cwnd += ewtcp_increase(_scalar, sf.cwnd, self.n_subflows)

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)
