"""Congestion-controller interface shared by all algorithms.

A controller instance belongs to exactly one connection and sees all of its
subflows, which is what lets coupled algorithms (LIA, OLIA, Balia, ecMTCP,
wVegas, DTS) compute the cross-subflow terms of the paper's model (Eq. 3):

    dx_r/dt = psi_r(x) x_r^2 / (RTT_r^2 (sum_k x_k)^2) - beta_r lambda_r x_r^2 - phi_r

The packet-level translation used throughout this package: a per-ACK window
increase of ``delta`` on subflow r contributes ``delta * x_r / RTT_r`` to
``dx_r/dt``, so the model's increase term corresponds to the per-ACK rule

    delta_r = psi_r(x) * w_r / (RTT_r^2 * (sum_k x_k)^2)

with rates ``x_k = w_k / RTT_k`` in segments/second. Each concrete algorithm
documents its ``psi_r`` next to its per-ACK rule — one pure function beside
the controller that ``on_ack``, the batch engine and the fluid adapters all
call; the decomposition as the paper prints it lives in
:mod:`repro.core.model`, and tests hold the rule to it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, List, Sequence

from repro.errors import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import TcpSender

#: Windows never fall below one segment (the kernel's floor).
MIN_CWND = 1.0


class CongestionController(ABC):
    """Base class for congestion-avoidance window rules.

    The sender (:class:`repro.net.flow.TcpSender`) performs slow start,
    loss detection and retransmission itself and calls in here only for:

    - :meth:`on_ack` — one call per newly ACKed segment in congestion
      avoidance (increase rule),
    - :meth:`on_loss` — once per fast-retransmit loss event (decrease rule),
    - :meth:`on_timeout` — after an RTO (the sender has already collapsed
      the window to 1),
    - :meth:`on_rtt` / :meth:`on_ecn` — measurement hooks.
    """

    name: ClassVar[str] = "base"
    #: Whether data packets should be sent ECN-capable (DCTCP sets this).
    ecn_capable: ClassVar[bool] = False

    def __init__(self) -> None:
        self.subflows: List["TcpSender"] = []

    def attach(self, subflows: Sequence["TcpSender"]) -> None:
        """Bind this controller to its connection's subflows."""
        if not subflows:
            raise AlgorithmError("controller attached with no subflows")
        self.subflows = list(subflows)

    # ----------------------------------------------------------- callbacks

    @abstractmethod
    def on_ack(self, sf: "TcpSender") -> None:
        """Apply the congestion-avoidance increase for one ACKed segment."""

    def on_loss(self, sf: "TcpSender") -> None:
        """Apply the multiplicative decrease (default: beta = 1/2)."""
        sf.cwnd = max(MIN_CWND, sf.cwnd / 2)

    def on_timeout(self, sf: "TcpSender") -> None:
        """React to an RTO (window already collapsed by the sender)."""

    def on_rtt(self, sf: "TcpSender", sample: float) -> None:
        """Observe a fresh RTT sample."""

    def on_ecn(self, sf: "TcpSender") -> None:
        """Observe an ECN congestion echo."""

    # ------------------------------------------------------------- helpers

    @property
    def n_subflows(self) -> int:
        """Number of attached subflows."""
        return len(self.subflows)

    def total_rate(self) -> float:
        """sum_k x_k with x_k = w_k / RTT_k, in segments/second."""
        return sum(s.cwnd / s.rtt for s in self.subflows)

    def total_window(self) -> float:
        """sum_k w_k, in segments."""
        return sum(s.cwnd for s in self.subflows)

    def min_rtt(self) -> float:
        """min_k RTT_k across subflows, in seconds."""
        return min(s.rtt for s in self.subflows)

    def max_rate(self) -> float:
        """max_k x_k across subflows, in segments/second."""
        return max(s.cwnd / s.rtt for s in self.subflows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.n_subflows}>"
