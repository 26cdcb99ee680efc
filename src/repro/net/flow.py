"""Single-subflow TCP sender/receiver machinery (DES host).

This module is the packet-level substitute for the per-subflow socket code of
the MPTCP Linux kernel v0.90 the paper modifies: slow start, congestion
avoidance (delegated to a pluggable congestion controller), duplicate-ACK
fast retransmit with NewReno-style partial-ACK recovery, exponential-backoff
retransmission timeouts, RTT estimation (RFC 6298), baseRTT tracking (the
input to the paper's DTS factor, Eq. 5), and ECN echo for DCTCP.

The transport *logic* lives in :mod:`repro.transport.core` as pure
transition functions over :class:`~repro.transport.core.SenderState`;
this module is the discrete-event host for that core: it owns packets,
routes, the simulator clock, and the coalesced RTO timer machinery, and
delegates every state transition. The asyncio UDP host in
:mod:`repro.transport.aio` drives the very same functions.

A :class:`TcpSender` is one subflow. Standalone TCP is a connection with a
single subflow; :mod:`repro.net.mptcp` builds multi-subflow connections that
share a :class:`SegmentSupply` and a coupled congestion controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.routing import Route
from repro.transport import core as _core
from repro.transport.core import (
    INITIAL_RTO,
    MAX_RTO,
    MIN_RTO,
    SegmentSupply,
    SenderState,
)
from repro.units import DEFAULT_MSS, DEFAULT_PACKET_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.algorithms.base import CongestionController
    from repro.net.events import Simulator

__all__ = [
    "DELACK_TIMEOUT",
    "MIN_RTO",
    "MAX_RTO",
    "INITIAL_RTO",
    "SegmentSupply",
    "TcpReceiver",
    "TcpSender",
]

_INF = float("inf")

#: Longest a delayed ACK waits for a second in-order segment, seconds.
DELACK_TIMEOUT = 0.04


class TcpReceiver:
    """Receiving endpoint of one subflow: reorders and sends cumulative ACKs.

    Reordering is :func:`repro.transport.core.deliver_segment`; this class
    adds the DES concerns — packet pools, ACK transmission, and delayed
    ACKs. With ``delayed_acks`` every second in-order segment is
    acknowledged (RFC 1122 style, with a timer flushing a pending ACK after
    :data:`DELACK_TIMEOUT`); out-of-order data, ECN marks and reordering are
    always acknowledged immediately, as real stacks do, so loss recovery
    and DCTCP are unaffected.
    """

    def __init__(
        self,
        sim: "Simulator",
        flow_id: int,
        route: Route,
        sender: "TcpSender",
        *,
        delayed_acks: bool = False,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.route = route
        self.sender = sender
        self._pool = sim.pool
        self.rcv_next = 0
        self._out_of_order: set = set()
        self.packets_received = 0
        self.bytes_received = 0
        self.delayed_acks = delayed_acks
        self._pending_since: Optional[float] = None
        self._pending_echo = 0.0
        self._delack_event = None
        self.acks_sent = 0

    def receive(self, packet: Packet) -> None:
        """Handle an arriving data segment and emit (or delay) the ACK."""
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        in_order, sack_seq = _core.deliver_segment(self, packet.seq)
        must_ack_now = (
            not self.delayed_acks
            or not in_order
            or packet.ecn_ce
            or self._pending_since is not None  # second in-order segment
        )
        if must_ack_now:
            self._emit_ack(packet.sent_time, packet.ecn_ce, sack_seq)
        else:
            self._pending_since = self.sim.now
            self._pending_echo = packet.sent_time
            self._delack_event = self.sim.schedule(
                DELACK_TIMEOUT, self._flush_delayed
            )

    def _flush_delayed(self) -> None:
        if self._pending_since is None:
            return
        self._emit_ack(self._pending_echo, False, -1)

    def _emit_ack(self, echo_time: float, ecn_echo: bool, sack_seq: int) -> None:
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self._pending_since = None
        ack = self._pool.ack(
            self.flow_id,
            self.rcv_next,
            self.route.reverse,
            self.sender,
            self.sim.now,
            echo_time=echo_time,
            ecn_echo=ecn_echo,
            sack_seq=sack_seq,
        )
        self.acks_sent += 1
        self.route.reverse[0].transmit(ack)


class TcpSender(SenderState):
    """Sending endpoint of one subflow (discrete-event host of the core).

    The congestion controller owns the *congestion-avoidance* window rules
    (per-ACK increase, loss decrease) for the whole connection; the sender
    owns everything else (slow start, loss detection, retransmission,
    timers, RTT estimation) — all delegated to the shared transition
    functions in :mod:`repro.transport.core`, with this class supplying the
    IO surface: the simulator clock via :meth:`now`, packet emission via
    :meth:`_send_segment`, and event-heap RTO timers.
    """

    def __init__(
        self,
        sim: "Simulator",
        flow_id: int,
        route: Route,
        supply: SegmentSupply,
        *,
        mss: int = DEFAULT_MSS,
        initial_cwnd: float = 2.0,
        rcv_buffer_segments: Optional[int] = None,
        ecn_capable: bool = False,
        delayed_acks: bool = False,
    ):
        super().__init__(
            mss=mss,
            packet_bytes=DEFAULT_PACKET_BYTES,
            ecn_capable=ecn_capable,
            cwnd=float(initial_cwnd),
            initial_cwnd=float(initial_cwnd),
            rwnd=rcv_buffer_segments if rcv_buffer_segments is not None else 10**9,
        )
        self.sim = sim
        self.flow_id = flow_id
        self.route = route
        self.supply = supply
        self._pool = sim.pool
        self.controller: Optional["CongestionController"] = None
        #: Optional observability probe (see repro.net.mptcp.ConnectionProbe);
        #: attached by MptcpConnection when an obs session is active.
        self.probe = None

        # --- RTO timer (coalesced: one armed tick event, re-aimed
        # lazily, instead of cancel+reschedule per ACK) ---
        #: When the conceptual retransmission timer expires (inf = off).
        self._rto_deadline = _INF
        #: When the armed tick event fires (inf = nothing armed).
        self._rto_tick_at = _INF
        self._rto_event = None

        self.receiver = TcpReceiver(sim, flow_id, route, self,
                                    delayed_acks=delayed_acks)

    # ------------------------------------------------------------------ api

    def now(self) -> float:
        """The pluggable clock: simulation time, for this host.

        Every transition and timer deadline reads time through this hook —
        nothing below reads ``sim.now`` directly — so the sans-IO
        :class:`~repro.transport.core.SenderCore` driving the same
        transitions from a wall clock cannot drift from the DES path.
        """
        return self.sim.now

    def start(self, at: float = 0.0) -> None:
        """Begin transmitting at absolute simulation time ``at``."""
        if self.started:
            raise ConfigurationError(f"flow {self.flow_id} already started")
        self.started = True
        self.sim.schedule_at(max(at, self.sim.now), self._begin)

    def _begin(self) -> None:
        self.start_time = self.now()
        self._send_available()

    # ------------------------------------------------------- sending engine

    def _send_segment(self, seq: int, *, is_retransmit: bool) -> None:
        pkt = self._pool.data(
            self.flow_id,
            seq,
            self.route.forward,
            self.receiver,
            self.sim.now,
            size_bytes=self.packet_bytes,
            ecn_capable=self.ecn_capable,
            is_retransmit=is_retransmit,
        )
        self.route.forward[0].transmit(pkt)
        self.packets_sent += 1
        if is_retransmit:
            self.retransmitted += 1

    # ------------------------------------------------------------ ACK input

    def receive(self, packet: Packet) -> None:
        """Handle an arriving ACK (this object is the ACK packets' sink)."""
        if not packet.is_ack:
            return
        _core.process_ack(
            self,
            packet.ack_seq,
            packet.sack_seq,
            packet.ecn_echo,
            packet.echo_time,
            self.now(),
        )

    # ---------------------------------------------------------------- timers

    def _ensure_rto_timer(self) -> None:
        if self._rto_deadline == _INF:
            self._restart_rto_timer()

    def _restart_rto_timer(self) -> None:
        # Per-ACK restart is two attribute stores. The armed tick only
        # moves when the new deadline is *earlier* than what is armed
        # (rare — RTO estimates shrink slowly); a later deadline is
        # handled lazily by _rto_tick re-arming itself.
        deadline = self.now() + self.rto * self._rto_backoff
        self._rto_deadline = deadline
        if deadline < self._rto_tick_at:
            if self._rto_event is not None:
                self._rto_event.cancel()
            self._rto_event = self.sim.schedule_at(deadline, self._rto_tick)
            self._rto_tick_at = deadline

    def _cancel_rto_timer(self) -> None:
        # The armed tick (if any) stays queued and no-ops at fire time.
        self._rto_deadline = _INF

    def _rto_tick(self) -> None:
        """Fire point of the coalesced timer: re-aim or expire.

        Fires at a (possibly stale) deadline. If the conceptual deadline
        moved later in the meantime, re-arm at the true deadline; the
        retransmission then happens at exactly the time the per-ACK
        cancel+reschedule scheme would have produced.
        """
        self._rto_event = None
        self._rto_tick_at = _INF
        deadline = self._rto_deadline
        if deadline == _INF:
            return
        if deadline > self.now():
            self._rto_event = self.sim.schedule_at(deadline, self._rto_tick)
            self._rto_tick_at = deadline
            return
        self._rto_deadline = _INF
        self._on_rto()

    # ------------------------------------------------------------- reporting

    def goodput_bps(self, elapsed: Optional[float] = None) -> float:
        """Average goodput in bits/second since the flow started."""
        if self.start_time is None:
            return 0.0
        if elapsed is None:
            end = (
                self.supply.completion_time
                if self.supply.completion_time is not None
                else self.now()
            )
            elapsed = end - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.acked * self.mss * 8 / elapsed
