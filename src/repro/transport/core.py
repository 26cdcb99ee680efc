"""Sans-IO MPTCP subflow core: pure transport transitions, no sockets.

This module is the single home of the per-ACK / loss-recovery / RTO state
machine that both transport hosts share:

* the discrete-event :class:`~repro.net.flow.TcpSender` (the paper's
  simulated kernel subflow) delegates every transition here, and
* :class:`SenderCore` below drives the same transitions from real UDP
  sockets and wall-clock timers (:mod:`repro.transport.aio`).

The split follows the sans-IO pattern: all protocol state lives in the
:class:`SenderState` dataclass, every transition is a module-level
function over that state, and the only environment a transition may touch
is the *host* object that carries the state — through a small, explicit
surface:

========================  ==================================================
host attribute / method   contract
========================  ==================================================
``SenderState`` fields    the pure transport state (see the dataclass)
``supply``                shared :class:`SegmentSupply`
``controller``            a :class:`~repro.algorithms.base.CongestionController`
                          or None (bare Reno fallback)
``probe``                 per-ACK observability hook or None
``route``                 path facts: ``base_rtt()`` and ``switch_hops()``
``now()``                 the pluggable clock (simulation or wall time)
``_send_segment(seq, *,   emit one segment — the DES host builds a packet
is_retransmit=...)``      and transmits it, the sans-IO host appends a
                          :class:`SendOp` to its emit list
``_restart_rto_timer()``  (re-)aim the retransmission deadline at
``_cancel_rto_timer()``   ``now() + rto * backoff`` / disarm it — timer
``_ensure_rto_timer()``   *scheduling* is IO and stays host-owned; the
                          deadline policy (when these are called) is here
========================  ==================================================

Transitions call each other as module functions.  The few steps a host
or a test replaces — ``_send_available``, ``_hystart_check``,
``_hole_is_lost``, ``_compute_pipe``, ``_on_rto`` — go through bound
methods that :class:`SenderState` states once for both hosts.

Nothing in this module imports the simulator, asyncio, or sockets; the
only dependencies are error types and unit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from repro.errors import ConfigurationError
from repro.units import DEFAULT_MSS, DEFAULT_PACKET_BYTES

#: RFC 6298 lower bound is 1 s; Linux uses 200 ms, which we follow.
MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0

_INF = float("inf")


# -------------------------------------------------------------------- supply

class SegmentSupply:
    """Application data source shared by the subflows of one connection.

    Counts segments granted to senders and segments cumulatively ACKed. A
    ``total`` of ``None`` models an infinite (long-lived FTP/iperf) source.
    """

    def __init__(self, total_segments: Optional[int] = None):
        if total_segments is not None and total_segments <= 0:
            raise ConfigurationError(f"total_segments must be positive, got {total_segments}")
        self.total = total_segments
        self.assigned = 0
        self.acked = 0
        self.completion_time: Optional[float] = None
        self.on_complete: Optional[Callable[[float], None]] = None

    def take(self) -> bool:
        """Grant one new segment to whichever subflow asks, if any remain."""
        if self.total is not None and self.assigned >= self.total:
            return False
        self.assigned += 1
        return True

    def note_acked(self, n: int, now: float) -> None:
        """Record ``n`` newly ACKed segments; fires completion once."""
        self.acked += n
        if (
            self.total is not None
            and self.acked >= self.total
            and self.completion_time is None
        ):
            self.completion_time = now
            if self.on_complete is not None:
                self.on_complete(now)

    @property
    def completed(self) -> bool:
        """True once every segment of a finite transfer has been ACKed."""
        return self.total is not None and self.acked >= self.total


# --------------------------------------------------------------------- state

@dataclass(eq=False)
class SenderState:
    """Pure transport state of one subflow sender.

    Field names are the wire between the two hosts: the DES
    :class:`~repro.net.flow.TcpSender` and the sans-IO :class:`SenderCore`
    both expose exactly these attributes (TcpSender by inheritance), and
    every transition function in this module is written against them.
    ``tests/test_transport_core.py`` pins the conformance.
    """

    # --- per-subflow configuration ---
    mss: int = DEFAULT_MSS
    packet_bytes: int = DEFAULT_PACKET_BYTES
    ecn_capable: bool = False
    subflow_index: int = 0

    # --- window state (in segments; cwnd is fractional) ---
    cwnd: float = 2.0
    initial_cwnd: float = 2.0
    ssthresh: float = 1e12
    rwnd: int = 10**9

    # --- sequencing ---
    next_seq: int = 0  # next brand-new sequence number
    high_water: int = 0  # one past the highest seq ever sent
    acked: int = 0  # cumulative ACK point
    dup_acks: int = 0
    in_recovery: bool = False
    recover_point: int = 0
    # SACK scoreboard: out-of-order seqs the receiver holds (>= acked);
    # holes already retransmitted this recovery episode; retransmissions
    # still unacknowledged (they count toward the pipe); and a forward
    # scan pointer for finding the next hole in O(1) amortized.
    _sacked: Set[int] = field(default_factory=set)
    _retransmitted_holes: Set[int] = field(default_factory=set)
    _retx_outstanding: Set[int] = field(default_factory=set)
    _hole_scan: int = 0
    #: Highest SACKed seq seen (drives the RFC 6675 IsLost heuristic).
    _max_sacked: int = -1
    #: Cached pipe value, maintained per ACK while in recovery.
    _pipe_cache: int = 0
    #: True when the current recovery episode began with an RTO, in
    #: which case the window regrows (slow start) during recovery.
    _rto_recovery: bool = False

    # --- RTT estimation (RFC 6298) ---
    srtt: Optional[float] = None
    rttvar: Optional[float] = None
    base_rtt: float = _INF
    latest_rtt: Optional[float] = None
    rto: float = INITIAL_RTO
    _rto_backoff: float = 1.0

    # --- counters ---
    fast_retransmits: int = 0
    timeouts: int = 0
    loss_events: int = 0
    packets_sent: int = 0
    retransmitted: int = 0
    started: bool = False
    start_time: Optional[float] = None

    # ----------------------------------------------------- derived views
    # These reference host-provided attributes (route, supply) and are
    # valid on any conforming host, not on a bare SenderState.

    @property
    def rtt(self) -> float:
        """Best current RTT estimate (smoothed, falling back to the floor)."""
        if self.srtt is not None:
            return self.srtt
        return max(self.route.base_rtt(), 1e-6)  # type: ignore[attr-defined]

    @property
    def inflight(self) -> int:
        """Estimated segments in the pipe (RFC 6675 style).

        Outside recovery: everything sent and not (selectively) ACKed.
        Inside recovery: the cached per-ACK pipe computation, which treats
        presumed-lost holes as *not* in flight (see :func:`compute_pipe`).
        """
        if self.in_recovery:
            return self._pipe_cache
        return self.high_water - self.acked - len(self._sacked)

    # --------------------------------------------- transition dispatchers
    # Bound-method hops to the transition functions below, stated once for
    # both hosts: the steps a host subclass or a test overrides.

    def _send_available(self) -> None:
        send_available(self)

    def _hystart_check(self) -> None:
        hystart_check(self)

    def _hole_is_lost(self, seq: int) -> bool:
        return hole_is_lost(self, seq)

    def _compute_pipe(self) -> int:
        return compute_pipe(self)

    def _on_rto(self) -> None:
        on_rto_expired(self)


# --------------------------------------------------------- pipe accounting

def hole_is_lost(s, seq: int) -> bool:
    """RFC 6675 IsLost, approximated at dup-threshold granularity: a
    hole is presumed lost once the receiver has SACKed data at least
    3 segments above it. After an RTO everything unSACKed below the
    recovery point is presumed lost."""
    if s._rto_recovery:
        return True
    return seq <= s._max_sacked - 3


def compute_pipe(s) -> int:
    """Segments currently in flight during a recovery episode.

    O(|sacked| + |retransmitted|) instead of a walk over the window, by
    counting the three disjoint contributions directly:

    * every non-SACKed seq in [recover_point, high_water) is in flight;
    * every unacknowledged retransmission below recover_point is in
      flight (the scoreboard keeps it disjoint from the SACKed set);
    * a plain hole below recover_point is in flight only while the
      IsLost heuristic has not yet presumed it lost — i.e. it lies
      above ``max_sacked - 3`` (never, after an RTO).
    """
    acked = s.acked
    recover = s.recover_point
    sacked = s._sacked
    retx = s._retx_outstanding
    pipe = (s.high_water - recover)
    if sacked:
        pipe -= sum(1 for x in sacked if x >= recover)
    pipe += sum(1 for x in retx if x < recover)
    if not s._rto_recovery:
        lo = s._max_sacked - 2  # seq > max_sacked - 3, i.e. not lost
        if lo < acked:
            lo = acked
        if lo < recover:
            pipe += recover - lo
            if sacked:
                pipe -= sum(1 for x in sacked if lo <= x < recover)
            if retx:
                pipe -= sum(1 for x in retx if lo <= x < recover)
    return pipe


# -------------------------------------------------------------- send engine

def effective_window(s) -> int:
    """Segments the sender may have in flight: min(cwnd, rwnd)."""
    return int(min(s.cwnd, s.rwnd))


def next_hole(s) -> int:
    """Next *presumed-lost* segment to retransmit this recovery, or -1.

    A hole is a seq in [acked, recover_point) that the receiver has not
    selectively ACKed, that the IsLost heuristic marks lost, and that we
    have not already retransmitted this recovery episode.
    """
    seq = max(s._hole_scan, s.acked)
    recover = s.recover_point
    sacked = s._sacked
    done = s._retransmitted_holes
    lost_below = _INF if s._rto_recovery else s._max_sacked - 3
    while seq < recover:
        if seq not in sacked and seq not in done:
            if seq > lost_below:  # inlined hole_is_lost
                return -1  # later holes are even less likely lost yet
            s._hole_scan = seq
            return seq
        seq += 1
    s._hole_scan = seq
    return -1


def send_available(s) -> None:
    """Fill the window: retransmit presumed-lost holes, then pull fresh
    segments from the shared supply."""
    window = effective_window(s)
    supply = s.supply
    sent_any = False
    if s.in_recovery:
        # in_recovery cannot flip inside the loop (no ACKs arrive
        # while we send), so the hole/new-data split hoists out.
        while s._pipe_cache < window:
            hole = next_hole(s)
            if hole >= 0:
                s._retransmitted_holes.add(hole)
                s._retx_outstanding.add(hole)
                s._send_segment(hole, is_retransmit=True)
                s._pipe_cache += 1
                sent_any = True
                continue
            if supply.completed or not supply.take():
                break
            s._send_segment(s.next_seq, is_retransmit=False)
            s.next_seq += 1
            s.high_water = max(s.high_water, s.next_seq)
            s._pipe_cache += 1
            sent_any = True
    else:
        inflight = s.high_water - s.acked - len(s._sacked)
        while inflight < window:
            if supply.completed or not supply.take():
                break
            s._send_segment(s.next_seq, is_retransmit=False)
            s.next_seq += 1
            s.high_water = max(s.high_water, s.next_seq)
            inflight += 1
            sent_any = True
    if sent_any:
        s._ensure_rto_timer()


# ---------------------------------------------------------------- ACK input

def process_ack(s, ack_seq: int, sack_seq: int, ecn_echo: bool,
                echo_time: float, now: float) -> None:
    """Handle one arriving cumulative ACK (the wire-agnostic form of the
    old ``TcpSender.receive``): RTT sample, ECN echo, SACK scoreboard,
    new-ACK / dup-ACK dispatch, pipe refresh, window refill."""
    take_rtt_sample(s, now, echo_time)
    controller = s.controller
    if controller is not None and ecn_echo:
        controller.on_ecn(s)
    if sack_seq >= s.acked and sack_seq not in s._sacked:
        s._sacked.add(sack_seq)
        s._retx_outstanding.discard(sack_seq)
        if sack_seq > s._max_sacked:
            s._max_sacked = sack_seq
    if ack_seq > s.acked:
        handle_new_ack(s, ack_seq)
    elif ack_seq == s.acked and s.high_water > s.acked:
        handle_dup_ack(s)
    if s.in_recovery:
        s._pipe_cache = s._compute_pipe()
    s._send_available()


def take_rtt_sample(s, now: float, echo_time: float) -> None:
    """RFC 6298 estimator update from one echoed timestamp."""
    sample = now - echo_time
    if sample <= 0:
        return
    absorb_rtt_sample(s, sample)


def absorb_rtt_sample(s, sample: float) -> None:
    """RFC 6298 estimator update from an already-computed RTT sample.

    Split out of :func:`take_rtt_sample` so hosts that *derive* the
    sample rather than echo timestamps (the batched round engine in
    :mod:`repro.net.batch`) share the exact estimator arithmetic.
    """
    s.latest_rtt = sample
    if sample < s.base_rtt:
        s.base_rtt = sample
    if s.srtt is None:
        s.srtt = sample
        s.rttvar = sample / 2
    else:
        s.rttvar = 0.75 * s.rttvar + 0.25 * abs(s.srtt - sample)
        s.srtt = 0.875 * s.srtt + 0.125 * sample
    s.rto = min(MAX_RTO, max(MIN_RTO, s.srtt + 4 * s.rttvar))
    if s.controller is not None:
        s.controller.on_rtt(s, sample)


def handle_new_ack(s, ack_seq: int) -> None:
    """A cumulative ACK advanced: trim the scoreboard, credit the supply,
    grow (or exit recovery and grow) the window, re-aim the RTO."""
    newly = ack_seq - s.acked
    s.acked = ack_seq
    s.dup_acks = 0
    s._rto_backoff = 1.0
    if s._sacked:
        s._sacked = {x for x in s._sacked if x >= ack_seq}
    if s._retx_outstanding:
        s._retx_outstanding = {
            x for x in s._retx_outstanding if x >= ack_seq
        }
    s.supply.note_acked(newly, s.now())
    if s.in_recovery:
        if s.acked >= s.recover_point:
            exit_recovery(s)
            grow_window(s, newly)
        elif s._rto_recovery:
            # Post-RTO the window regrows from 1 via slow start even
            # while holes are being refilled, as Linux does.
            grow_window(s, newly)
    else:
        grow_window(s, newly)
    if s.probe is not None:
        s.probe.on_ack(s)
    if s.inflight > 0:
        s._restart_rto_timer()
    else:
        s._cancel_rto_timer()


def exit_recovery(s) -> None:
    """Leave a recovery episode: clear the scoreboard and pipe cache."""
    s.in_recovery = False
    s._rto_recovery = False
    s._retransmitted_holes.clear()
    s._retx_outstanding.clear()
    s._pipe_cache = 0


def grow_window(s, newly_acked: int) -> None:
    """Per-ACK window growth: slow start below ssthresh, controller rule
    (or bare Reno) in congestion avoidance."""
    for _ in range(newly_acked):
        if s.cwnd < s.ssthresh:
            s.cwnd += 1.0  # slow start (uncoupled, as in the kernel)
            s._hystart_check()
        elif s.controller is not None:
            s.controller.on_ack(s)
        else:
            s.cwnd += 1.0 / s.cwnd  # bare Reno fallback


def hystart_check(s) -> None:
    """HyStart-style delay-increase exit from slow start.

    Linux (which the paper's kernel v0.90 inherits) leaves slow start
    when the RTT has risen measurably above its floor, long before the
    queue overflows; without this, slow start overshoots by a full
    bandwidth-delay product and the resulting mass loss dominates every
    short transfer.
    """
    if s.latest_rtt is None or s.base_rtt == _INF:
        return
    if s.cwnd < 16:
        return
    # Exit when queueing has inflated the RTT by half the propagation
    # floor (min 8 ms) — late enough not to strand high-BDP paths in
    # congestion avoidance at a tiny window, early enough to avoid the
    # full buffer-overflow burst on short-RTT paths.
    threshold = s.base_rtt + max(0.008, s.base_rtt / 2)
    if s.latest_rtt > threshold:
        s.ssthresh = s.cwnd


def handle_dup_ack(s) -> None:
    """Count a duplicate ACK; the third opens fast recovery."""
    s.dup_acks += 1
    if s.dup_acks == 3 and not s.in_recovery:
        enter_fast_recovery(s)


def enter_fast_recovery(s) -> None:
    """Three dup-ACKs: halve via the controller, retransmit the first
    hole immediately, start SACK-driven hole filling."""
    s.fast_retransmits += 1
    s.loss_events += 1
    s.in_recovery = True
    s._rto_recovery = False
    s.recover_point = s.high_water
    s._retransmitted_holes.clear()
    s._retx_outstanding.clear()
    s._hole_scan = s.acked
    if s.controller is not None:
        s.controller.on_loss(s)
    else:
        s.cwnd = max(1.0, s.cwnd / 2)
    if s.probe is not None:
        s.probe.on_loss(s, "fast_retransmit")
    s.ssthresh = max(2.0, s.cwnd)
    # The first hole (the cumulative-ACK point) is retransmitted
    # immediately; further holes are filled by send_available as the
    # pipe drains.
    s._retransmitted_holes.add(s.acked)
    s._retx_outstanding.add(s.acked)
    s._send_segment(s.acked, is_retransmit=True)
    s._pipe_cache = s._compute_pipe()
    s._restart_rto_timer()


def on_rto_expired(s) -> None:
    """The retransmission timer fired: collapse the window, presume
    everything unSACKed lost, and start an RTO-recovery episode.

    Host timer bookkeeping (clearing armed events) happens *before* the
    host delegates here; this function is pure policy.
    """
    if s.inflight == 0 or s.supply.completed:
        return
    s.timeouts += 1
    s.loss_events += 1
    s.ssthresh = max(2.0, s.cwnd / 2)
    s.cwnd = 1.0
    s.dup_acks = 0
    # RTO starts a fresh recovery episode: every unSACKed segment below
    # the current send frontier is presumed lost and refilled via
    # hole retransmission, with the window regrowing in slow start.
    s.in_recovery = True
    s._rto_recovery = True
    s.recover_point = s.high_water
    s._retransmitted_holes.clear()
    s._retx_outstanding.clear()
    s._hole_scan = s.acked
    s._rto_backoff = min(64.0, s._rto_backoff * 2)
    if s.controller is not None:
        s.controller.on_timeout(s)
    if s.probe is not None:
        s.probe.on_loss(s, "timeout")
    s._retransmitted_holes.add(s.acked)
    s._retx_outstanding.add(s.acked)
    s._send_segment(s.acked, is_retransmit=True)
    s._pipe_cache = s._compute_pipe()
    s._restart_rto_timer()


# ------------------------------------------------------------ receiver side

@dataclass(eq=False)
class ReceiverState:
    """Pure reordering state of one subflow receiver."""

    rcv_next: int = 0
    _out_of_order: Set[int] = field(default_factory=set)


def deliver_segment(r, seq: int) -> "tuple[bool, int]":
    """Advance the receive window for one arriving data segment.

    Returns ``(in_order, sack_seq)``: whether the segment extended the
    in-order prefix, and the out-of-order seq to SACK (-1 when none —
    in-order and duplicate segments carry no SACK block).
    """
    in_order = seq == r.rcv_next
    sack_seq = -1
    if in_order:
        r.rcv_next += 1
        while r.rcv_next in r._out_of_order:
            r._out_of_order.discard(r.rcv_next)
            r.rcv_next += 1
    elif seq > r.rcv_next:
        r._out_of_order.add(seq)
        sack_seq = seq
    return in_order, sack_seq


# ------------------------------------------------------------- sans-IO hosts

@dataclass(frozen=True)
class SendOp:
    """One segment the core wants on the wire."""

    seq: int
    is_retransmit: bool


@dataclass(frozen=True)
class AckOp:
    """One acknowledgment the receiver core wants on the wire."""

    ack_seq: int
    sack_seq: int
    echo_time: float


class PathProfile:
    """Static facts about a real path, quacking like a DES ``Route``.

    Controllers read two things off a subflow's route: the propagation
    floor (``base_rtt()``, the pre-sample RTT fallback) and the
    switch-hop count (extended DTS's per-hop energy price). On a real
    network both are configuration, not geometry.
    """

    __slots__ = ("_base_rtt", "_switch_hops")

    def __init__(self, *, base_rtt: float = 0.05, switch_hops: int = 0):
        if base_rtt <= 0:
            raise ConfigurationError(f"base_rtt must be positive, got {base_rtt}")
        self._base_rtt = base_rtt
        self._switch_hops = switch_hops

    def base_rtt(self) -> float:
        return self._base_rtt

    def switch_hops(self) -> int:
        return self._switch_hops


class _ClockView:
    """Adapter giving controllers the ``sf.sim.now`` they expect."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], float]):
        self._fn = fn

    @property
    def now(self) -> float:
        return self._fn()


class SenderCore(SenderState):
    """Sans-IO subflow sender: :class:`SenderState` plus an emit list.

    Instead of transmitting, every outbound segment lands in
    :attr:`emits` (drain with :meth:`take_emits`); instead of scheduling
    timer events, the retransmission deadline is exposed as
    :attr:`rto_deadline` and the runtime calls :meth:`on_tick` when it
    believes the deadline may have passed. Time comes exclusively from
    the injected ``clock``.

    Any :class:`~repro.algorithms.base.CongestionController` attaches to
    a set of cores exactly as it would to DES senders — the cores carry
    the same attribute surface (including ``sim.now`` and ``route``).
    """

    def __init__(
        self,
        supply,
        *,
        clock: Callable[[], float],
        controller=None,
        subflow_index: int = 0,
        mss: int = DEFAULT_MSS,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        initial_cwnd: float = 2.0,
        rcv_buffer_segments: Optional[int] = None,
        ecn_capable: bool = False,
        path: Optional[PathProfile] = None,
    ):
        super().__init__(
            mss=mss,
            packet_bytes=packet_bytes,
            ecn_capable=ecn_capable,
            subflow_index=subflow_index,
            cwnd=float(initial_cwnd),
            initial_cwnd=float(initial_cwnd),
            rwnd=rcv_buffer_segments if rcv_buffer_segments is not None else 10**9,
        )
        self.supply = supply
        self.controller = controller
        self.probe = None
        self.clock = clock
        self.route = path if path is not None else PathProfile()
        #: Controllers occasionally read ``sf.sim.now`` (e.g. DWC); give
        #: them the pluggable clock under that name.
        self.sim = _ClockView(clock)
        #: Pending wire intents, oldest first.
        self.emits: List[SendOp] = []
        #: Absolute time the conceptual retransmission timer expires
        #: (inf = disarmed). The runtime owns waking us up by then.
        self.rto_deadline: float = _INF

    # ------------------------------------------------------------- clock/io

    def now(self) -> float:
        """The pluggable clock."""
        return self.clock()

    def take_emits(self) -> List[SendOp]:
        """Drain and return the pending wire intents."""
        out, self.emits = self.emits, []
        return out

    def _send_segment(self, seq: int, *, is_retransmit: bool) -> None:
        self.emits.append(SendOp(seq, is_retransmit))
        self.packets_sent += 1
        if is_retransmit:
            self.retransmitted += 1

    def _restart_rto_timer(self) -> None:
        self.rto_deadline = self.now() + self.rto * self._rto_backoff

    def _cancel_rto_timer(self) -> None:
        self.rto_deadline = _INF

    def _ensure_rto_timer(self) -> None:
        if self.rto_deadline == _INF:
            self._restart_rto_timer()

    # ------------------------------------------------------------------ api

    def start(self, at: Optional[float] = None) -> None:
        """Open the window and queue the initial burst of segments."""
        if self.started:
            raise ConfigurationError(
                f"subflow {self.subflow_index} already started")
        self.started = True
        self.start_time = self.now() if at is None else at
        self._send_available()

    def on_ack(self, ack_seq: int, *, sack_seq: int = -1,
               ecn_echo: bool = False, echo_time: float = 0.0,
               now: Optional[float] = None) -> None:
        """Feed one decoded ACK into the state machine."""
        process_ack(self, ack_seq, sack_seq, ecn_echo, echo_time,
                    self.now() if now is None else now)

    def on_tick(self, now: Optional[float] = None) -> float:
        """Fire the RTO if its deadline passed; returns the next deadline
        (inf when the timer is disarmed)."""
        t = self.now() if now is None else now
        if self.rto_deadline <= t:
            self.rto_deadline = _INF
            self._on_rto()
        return self.rto_deadline



class ReceiverCore(ReceiverState):
    """Sans-IO subflow receiver: reorders and emits cumulative ACKs.

    Every data segment is acknowledged immediately (the real-transport
    equivalent of ``delayed_acks=False``); duplicates below the receive
    point still produce an ACK so a sender recovering from reverse-path
    loss keeps its clock.
    """

    def __init__(self, *, subflow_index: int = 0):
        super().__init__()
        self.subflow_index = subflow_index
        self.packets_received = 0
        self.bytes_received = 0
        self.duplicates = 0

    def on_data(self, seq: int, sent_time: float, size_bytes: int = 0) -> AckOp:
        """Account one data segment and return the ACK to put on the wire."""
        self.packets_received += 1
        self.bytes_received += size_bytes
        if seq < self.rcv_next or seq in self._out_of_order:
            self.duplicates += 1
        in_order, sack_seq = deliver_segment(self, seq)
        del in_order  # immediate-ACK policy: acknowledge either way
        return AckOp(ack_seq=self.rcv_next, sack_seq=sack_seq,
                     echo_time=sent_time)
