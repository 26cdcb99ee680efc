"""Shared round semantics for the batch engine and its scalar oracle.

One delivery round of one subflow is defined *once*, in
:func:`scalar_round`, in terms of the scalar transition functions of
:mod:`repro.transport.core` (``absorb_rtt_sample``, ``grow_window``,
``hystart_check``) and the real :mod:`repro.algorithms` controllers.
The scalar oracle (:mod:`repro.net.batch.oracle`) runs every round
through it; the batch engine (:mod:`repro.net.batch.engine`) runs its
vector kernels for the common case and falls back to this exact code for
rare paths (lossy rounds, oversized bursts, controllers without a vector
rule), on the same :class:`ConnState` / :class:`SubflowPort` objects
(:func:`open_connection` builds them for both engines; the engine copies
a connection's array row into them before the call and back after it).
The two engines can therefore only diverge inside the vector kernels and
that copy — which is precisely the surface the hypothesis equivalence
suite pins bit-for-bit.

Round semantics (both engines, identical by construction):

1. ``n = burst`` segments arrive; segment ``i`` is lost iff its uniform
   draw ``u[i] < loss_rate`` or ``i >= over_limit`` (drop-tail).
2. The round's RTT sample ``base_rtt + n * seg_time`` feeds the RFC 6298
   estimator (:func:`repro.transport.core.absorb_rtt_sample`).
3. A leading clean run of ``n_clean`` ACKs resets the RTO backoff and
   grows the window per ACK (:func:`repro.transport.core.grow_window`:
   slow start + HyStart below ssthresh, controller rule above).
4. All ``n`` segments credit the connection's supply (lost ones are
   retransmitted within the round's recovery penalty).
5. Any loss is one loss event: all-lost is an RTO (window to 1, backoff
   doubled, ``rto * backoff`` penalty); a partial loss is a fast
   retransmit (controller halving, one extra RTT penalty), mirroring the
   policy cores of ``enter_fast_recovery`` / ``on_rto_expired``.
6. The next burst ``min(int(min(cwnd, rwnd)), remaining supply)`` is
   scheduled ``penalty + RTT(next burst)`` later, quantized up to the
   scenario tick — the quantization is what forms cohorts.

RNG contract: a single :class:`repro.net.rand.Pcg64` seeded with the
scenario seed (``numpy.random.default_rng(seed)``'s stream, bit for bit);
each round consumes exactly ``burst`` ``random()`` draws, in (tick,
connection, subflow-slot) order.  :func:`repro._uniforms.fill_random`
produces the same stream whether drawn per round (the oracle) or in one
per-tick block (the engine), so both engines consume identical uniforms.

Bit-exactness caveat, load-bearing: the DTS sigmoid
(:func:`repro.core.dts.dts_factor`) is evaluated over ``np`` on *both*
engines, because ``math.exp`` and ``np.exp`` are different libms that
disagree in the last ulp on a few percent of inputs (numpy's scalar and
array ufunc results are elementwise identical).  The vector path has no
rules of its own: it calls ``dts_factor`` and the controllers'
:func:`~repro.algorithms.dts.dts_increase` /
:func:`~repro.algorithms.lia.lia_increase` on arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import create_controller, resolve_algorithm
from repro.algorithms.dts import DtsController, ExtendedDtsController
from repro.core.dts import dts_factor
from repro.transport import core as tcore

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.batch.scenario import BatchConnection, BatchPath, BatchScenario

#: Subflow-slot algorithms with a vector per-ACK rule in the batch engine.
VECTOR_ALGORITHMS = ("dts", "lia")

#: Bursts larger than this always take the scalar fallback; the vector
#: per-ACK loop iterates to the cohort's largest clean burst, so one
#: pathological window must not stall every lane.
MAX_VECTOR_BURST = 1024


#: A subflow's ``eps_memo`` between rounds: nothing cached.
_NO_EPS = (None, None, 0.0)


class _NpSigmoidDts(DtsController):
    """DTS with Eq. (5) evaluated over ``np`` (see module docstring)."""

    def epsilon(self, sf) -> float:
        """Eq. (5), evaluated once per round.

        ``transport.core.grow_window`` asks on every ACK of a round, and
        neither ``base_rtt`` nor the RTT moves within one, so the subflow
        keeps its last ``(base_rtt, rtt, eps)`` and a repeat returns the
        same float the call would.  :func:`scalar_round` drops it with
        the round, so no cached value outlives the ACKs it served.
        """
        rtt = sf.latest_rtt if sf.latest_rtt is not None else sf.rtt
        base = sf.base_rtt
        memo = sf.eps_memo
        if memo[0] == base and memo[1] == rtt:
            return memo[2]
        f = self.factor
        eps = float(dts_factor(np, base, rtt, f.slope, f.center, f.ceiling))
        sf.eps_memo = (base, rtt, eps)
        return eps


class _NpSigmoidDtsExt(ExtendedDtsController):
    """Extended DTS with the same numpy-routed sigmoid."""

    epsilon = _NpSigmoidDts.epsilon


def make_controller(algorithm: str, kwargs: Dict[str, Any]):
    """Controller factory shared by both engines.

    Returns ``(controller, vector_kind)`` where ``vector_kind`` is the
    canonical algorithm name if the batch engine has a vector per-ACK
    rule for it, else ``None`` (the connection stays on the scalar path
    in both engines).  DTS variants get the numpy-routed sigmoid so the
    scalar oracle and the vector kernel share one exp implementation; a
    DTS connection configured with the Taylor fixed-point factor has no
    vector rule and deliberately exercises the scalar-resident path.
    """
    name = resolve_algorithm(algorithm)
    if name == "dts":
        ctrl = _NpSigmoidDts(**kwargs)
        vector: Optional[str] = None if ctrl.factor.use_taylor else "dts"
        return ctrl, vector
    if name == "dts-ext":
        return _NpSigmoidDtsExt(**kwargs), None
    ctrl = create_controller(name, **kwargs)
    return ctrl, "lia" if name == "lia" else None


class _Clock:
    """Mutable ``sim.now`` view for controllers that read the clock."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class ConnState:
    """Connection-level supply and completion state."""

    __slots__ = ("gid", "spec", "total", "assigned", "acked", "completion_tick")

    def __init__(self, gid: int, spec: "BatchConnection"):
        self.gid = gid
        self.spec = spec
        self.total: Optional[int] = spec.total_segments
        self.assigned = 0
        self.acked = 0
        self.completion_tick: Optional[int] = None


class SubflowPort:
    """One subflow's scalar state, quacking like a ``TcpSender`` host.

    Provides exactly the attribute surface the reused
    :mod:`repro.transport.core` transitions and the
    :mod:`repro.algorithms` controllers touch: window/estimator state,
    ``rtt``/``route``/``sim`` views, and loss counters.
    """

    __slots__ = (
        "path",
        "route",
        "controller",
        "sim",
        "subflow_index",
        "probe",
        "cwnd",
        "ssthresh",
        "srtt",
        "rttvar",
        "base_rtt",
        "latest_rtt",
        "rto",
        "_rto_backoff",
        "rwnd",
        "seg_time",
        "over_limit",
        "burst",
        "deadline_tick",
        "active",
        "packets_sent",
        "retransmitted",
        "fast_retransmits",
        "timeouts",
        "loss_events",
        "rounds",
        "eps_memo",
    )

    def __init__(self, path: "BatchPath", spec: "BatchConnection", slot: int,
                 clock: _Clock):
        self.path = path
        self.route = tcore.PathProfile(
            base_rtt=path.base_rtt, switch_hops=path.switch_hops
        )
        self.controller = None
        self.sim = clock
        self.subflow_index = slot
        self.probe = None
        self.cwnd = float(spec.initial_cwnd)
        self.ssthresh = 1e12
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.base_rtt = float("inf")
        self.latest_rtt: Optional[float] = None
        self.rto = tcore.INITIAL_RTO
        self._rto_backoff = 1.0
        self.rwnd = float(spec.rwnd_segments)
        self.seg_time = path.seg_time(spec.packet_bytes)
        self.over_limit = path.over_limit(spec.packet_bytes)
        self.burst = 0
        self.deadline_tick = -1
        self.active = True
        self.packets_sent = 0
        self.retransmitted = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.loss_events = 0
        self.rounds = 0
        #: ``(base_rtt, rtt, eps)`` of this round's Eq. (5) evaluation.
        self.eps_memo: tuple = _NO_EPS

    @property
    def rtt(self) -> float:
        """Mirror of :attr:`repro.transport.core.SenderState.rtt`."""
        if self.srtt is not None:
            return self.srtt
        return max(self.route.base_rtt(), 1e-6)

    def _hystart_check(self) -> None:
        tcore.hystart_check(self)


def classify_losses(u: np.ndarray, loss_rate: float, over_limit: int) -> Tuple[int, int]:
    """``(n_clean, n_lost)`` for one burst's uniforms.

    ``n_clean`` is the leading run of delivered segments (the new-ACK
    prefix); ``n_lost`` the total drops (random plus drop-tail overflow).
    """
    n = len(u)
    lost = u < loss_rate
    if over_limit < n:
        lost = lost.copy()
        lost[over_limit:] = True
    if not lost.any():
        return n, 0
    return int(np.argmax(lost)), int(np.count_nonzero(lost))


def apply_loss_event(sub) -> None:
    """Policy core of :func:`repro.transport.core.enter_fast_recovery`:
    count the event, apply the controller's decrease, set ssthresh."""
    sub.fast_retransmits += 1
    sub.loss_events += 1
    sub.controller.on_loss(sub)
    sub.ssthresh = max(2.0, sub.cwnd)


def apply_timeout(sub) -> None:
    """Policy core of :func:`repro.transport.core.on_rto_expired`:
    collapse the window, double the backoff, notify the controller."""
    sub.timeouts += 1
    sub.loss_events += 1
    sub.ssthresh = max(2.0, sub.cwnd / 2)
    sub.cwnd = 1.0
    sub._rto_backoff = min(64.0, sub._rto_backoff * 2)
    sub.controller.on_timeout(sub)


def take_burst(sub, conn) -> int:
    """Grant the next burst from the connection's shared supply.

    Returns the granted size; zero deactivates the subflow (finite
    transfer fully assigned).  Mirrors ``SegmentSupply.take`` semantics:
    the grant is ``effective_window`` capped by remaining supply.
    """
    w = int(min(sub.cwnd, sub.rwnd))
    m = w if conn.total is None else min(w, conn.total - conn.assigned)
    if m <= 0:
        sub.burst = 0
        sub.deadline_tick = -1
        sub.active = False
        return 0
    conn.assigned += m
    sub.packets_sent += m
    sub.burst = m
    return m


def open_connection(gid: int, spec: "BatchConnection", clock: _Clock, tick: float):
    """Scalar state of one connection, its first bursts already granted.

    Returns ``(conn, ports, vector_kind)``: the controller is attached to
    the ports it will be called with for the whole run (controllers such
    as OLIA key per-subflow state by ``id(port)``), and every subflow
    that got a first burst carries its first ``deadline_tick``.  Both
    engines open every connection through here, so the engine's
    fallback and the oracle run the same objects.
    """
    conn = ConnState(gid, spec)
    controller, vector = make_controller(spec.algorithm, spec.controller_kwargs)
    ports = [
        SubflowPort(path, spec, slot, clock) for slot, path in enumerate(spec.paths)
    ]
    for port in ports:
        port.controller = controller
    controller.attach(ports)
    for port in ports:
        m = take_burst(port, conn)
        if m:
            delay = port.path.base_rtt + m * port.seg_time
            port.deadline_tick = max(1, math.ceil(delay / tick))
    return conn, ports, vector


def scalar_round(sub, conn, u: np.ndarray, now_tick: int, tick: float) -> None:
    """Advance one subflow by one delivery round (see module docstring).

    ``u`` holds the round's pre-drawn uniforms (``len(u) == sub.burst``).
    """
    n = sub.burst
    n_clean, n_lost = classify_losses(u, sub.path.loss_rate, sub.over_limit)
    sample = sub.path.base_rtt + n * sub.seg_time
    tcore.absorb_rtt_sample(sub, sample)
    if n_clean > 0:
        sub._rto_backoff = 1.0
    conn.acked += n
    if (
        conn.total is not None
        and conn.acked >= conn.total
        and conn.completion_tick is None
    ):
        conn.completion_tick = now_tick
    tcore.grow_window(sub, n_clean)
    sub.eps_memo = _NO_EPS
    if n_lost == 0:
        penalty = 0.0
    elif n_lost == n:
        apply_timeout(sub)
        penalty = sub.rto * sub._rto_backoff
    else:
        apply_loss_event(sub)
        penalty = sub.latest_rtt
    sub.retransmitted += n_lost
    sub.rounds += 1
    m = take_burst(sub, conn)
    if m == 0:
        return
    delay = penalty + (sub.path.base_rtt + m * sub.seg_time)
    sub.deadline_tick = now_tick + max(1, math.ceil(delay / tick))


def subflow_record(sub, conn, now_tick: int) -> tuple:
    """Post-round trajectory record, identical across engines."""
    return (
        now_tick,
        conn.gid,
        sub.subflow_index,
        float(sub.cwnd),
        float(sub.ssthresh),
        float(sub.srtt) if sub.srtt is not None else None,
        float(sub.rttvar) if sub.rttvar is not None else None,
        float(sub.latest_rtt) if sub.latest_rtt is not None else None,
        float(sub.rto),
        float(sub._rto_backoff),
        int(sub.burst),
        int(conn.acked),
        int(conn.assigned),
    )


def connection_snapshot(conn, subs: List, scenario: "BatchScenario") -> Dict[str, Any]:
    """Final per-connection metrics, assembled identically by both engines."""
    spec = conn.spec
    completion = (
        conn.completion_tick * scenario.tick
        if conn.completion_tick is not None
        else None
    )
    elapsed = completion if completion is not None and completion > 0 else scenario.duration
    goodput = conn.acked * spec.packet_bytes * 8 / elapsed
    return {
        "id": conn.gid,
        "algorithm": resolve_algorithm(spec.algorithm),
        "n_subflows": spec.n_subflows,
        "acked_segments": int(conn.acked),
        "assigned_segments": int(conn.assigned),
        "completion_time": completion,
        "goodput_bps": goodput,
        "subflows": [
            {
                "cwnd": float(s.cwnd),
                "ssthresh": float(s.ssthresh),
                "srtt": float(s.srtt) if s.srtt is not None else None,
                "rto": float(s.rto),
                "rounds": int(s.rounds),
                "packets_sent": int(s.packets_sent),
                "retransmitted": int(s.retransmitted),
                "fast_retransmits": int(s.fast_retransmits),
                "timeouts": int(s.timeouts),
                "loss_events": int(s.loss_events),
            }
            for s in subs
        ],
    }


def assemble_result(snapshots: List[Dict[str, Any]],
                    scenario: "BatchScenario") -> Dict[str, Any]:
    """Engine-independent result payload from per-connection snapshots.

    Deliberately excludes engine-private counters (vector vs fallback
    round splits, compactions): the payload must be byte-identical
    between the batch engine and the scalar oracle, which is what
    ``test_campaign_executor_packet_engines_byte_equal`` asserts through
    the campaign executor.
    """
    total_goodput = 0.0
    totals = {
        "acked_segments": 0,
        "retransmitted": 0,
        "loss_events": 0,
        "fast_retransmits": 0,
        "timeouts": 0,
        "rounds": 0,
        "completed": 0,
    }
    for snap in snapshots:
        total_goodput += snap["goodput_bps"]
        totals["acked_segments"] += snap["acked_segments"]
        if snap["completion_time"] is not None:
            totals["completed"] += 1
        for sf in snap["subflows"]:
            totals["retransmitted"] += sf["retransmitted"]
            totals["loss_events"] += sf["loss_events"]
            totals["fast_retransmits"] += sf["fast_retransmits"]
            totals["timeouts"] += sf["timeouts"]
            totals["rounds"] += sf["rounds"]
    return {
        "n_connections": scenario.n_connections,
        "duration": scenario.duration,
        "tick": scenario.tick,
        "seed": scenario.seed,
        "aggregate_goodput_bps": total_goodput,
        "totals": totals,
        "connections": snapshots,
    }
