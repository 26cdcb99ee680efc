"""LIA — Linked Increases Algorithm (Wischik et al., NSDI'11; RFC 6356).

The MPTCP Linux kernel default. Section IV decomposition:
``psi_r = (max_k w_k/RTT_k^2) * RTT_r^2 / w_r``, i.e. the per-ACK increase

    delta_r = min( max_k(w_k/RTT_k^2) / (sum_k w_k/RTT_k)^2 , 1/w_r )

where the ``min`` is RFC 6356's TCP-friendliness cap (never more aggressive
than Reno on any one path). LIA is TCP-friendly by construction
(Condition 1) but not Pareto-optimal, which is exactly the gap the paper's
Fig. 6 experiment exposes against OLIA.

The increase is :func:`lia_increase`, written once: ``on_ack`` calls it
with floats, the batch engine's vector rounds and the fluid adapter with
arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro import _scalar
from repro.algorithms.base import MIN_CWND, CongestionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender


def lia_increase(xp, w, best_rate, total_rate):
    """The per-ACK increase ``min(best / (sum_k x_k)^2, 1/w)``.

    ``best_rate`` is ``max_k w_k/RTT_k^2`` and ``total_rate`` is
    ``sum_k w_k/RTT_k`` over the connection; one array lane over ``xp`` is
    bit-identical to one :meth:`LiaController.on_ack`.
    """
    return xp.minimum(best_rate / (total_rate * total_rate), 1.0 / w)


class LiaController(CongestionController):
    """RFC 6356 linked increases; halve the subflow window on loss."""

    name: ClassVar[str] = "lia"

    def on_ack(self, sf: "TcpSender") -> None:
        best = max(s.cwnd / (s.rtt * s.rtt) for s in self.subflows)
        sf.cwnd += lia_increase(_scalar, sf.cwnd, best, self.total_rate())

    def on_loss(self, sf: "TcpSender") -> None:
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)
