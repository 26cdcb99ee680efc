"""MPTCP connection layer: multiple subflows, one coupled controller.

Mirrors the structure of the MPTCP Linux kernel v0.90 the paper builds on:
an MPTCP connection owns one congestion-control instance and several
subflows, each with an independent congestion window; the controller's
per-ACK increase rule couples the windows (Section IV's model, Eq. 3).

Data scheduling uses a pull model: whenever a subflow has window space it
pulls the next segment from the connection's shared
:class:`~repro.net.flow.SegmentSupply`. This matches the paper's workloads
(bulk transfers and long-lived flows), where segment placement is not the
bottleneck and congestion control alone determines per-path rates.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.net.flow import SegmentSupply, TcpSender
from repro.net.routing import Route
from repro.units import DEFAULT_MSS

if TYPE_CHECKING:  # pragma: no cover
    from repro.algorithms.base import CongestionController
    from repro.net.batch.scenario import BatchConnection
    from repro.net.events import Simulator

_flow_ids = itertools.count(1)


class ConnectionProbe:
    """Per-ACK observability for one connection's subflows.

    Attached to every subflow's :attr:`~repro.net.flow.TcpSender.probe`
    when an obs session is active (and never otherwise, so the default
    packet path pays one ``is None`` test per ACK).  It records the
    registry series behind the paper's trace figures — congestion-window
    distribution, loss events, and for DTS controllers the Eq. (5)
    epsilon values and traffic-shifting decisions — and, when tracing is
    on, emits instant events at shifting transitions and losses plus a
    sampled cwnd timeline.
    """

    #: Emit a cwnd trace instant every this many ACKs per connection.
    CWND_SAMPLE_EVERY = 64

    #: Epsilon below this freezes growth / above boosts it (Section V.A's
    #: reading of Eq. 5: E[eps] = 1, eps < 1 on delay-inflated paths).
    FREEZE_BELOW = 0.99
    BOOST_ABOVE = 1.01

    def __init__(self, registry: "obs.MetricsRegistry", tracer,
                 connection: "MptcpConnection"):
        self.tracer = tracer
        self.connection = connection
        self.acks = registry.counter("mptcp.acks")
        self.losses = registry.counter("mptcp.loss_events")
        self.cwnd_hist = registry.histogram("mptcp.cwnd")
        self._eps_fn = getattr(connection.controller, "epsilon", None)
        if self._eps_fn is not None:
            self.eps_hist = registry.histogram(
                "dts.epsilon", obs.geometric_buckets(0.125, 8.0, 2 ** 0.5))
            self.shift_freeze = registry.counter("dts.shift_freeze")
            self.shift_boost = registry.counter("dts.shift_boost")
        self._shift_state: Dict[int, str] = {}

    def on_ack(self, sf: TcpSender) -> None:
        """Record one cumulative-ACK cwnd update on subflow ``sf``."""
        self.acks.inc()
        self.cwnd_hist.observe(sf.cwnd)
        if self._eps_fn is not None:
            eps = self._eps_fn(sf)
            self.eps_hist.observe(eps)
            state = ("freeze" if eps < self.FREEZE_BELOW
                     else "boost" if eps > self.BOOST_ABOVE else "steady")
            if state != self._shift_state.get(sf.subflow_index):
                self._shift_state[sf.subflow_index] = state
                if state == "freeze":
                    self.shift_freeze.inc()
                elif state == "boost":
                    self.shift_boost.inc()
                if self.tracer.enabled:
                    self.tracer.instant(
                        "mptcp.shift", subflow=sf.subflow_index, state=state,
                        epsilon=round(eps, 4), cwnd=round(sf.cwnd, 3),
                        sim_now=round(sf.sim.now, 6))
        if self.tracer.enabled and self.acks.value % self.CWND_SAMPLE_EVERY == 0:
            self.tracer.instant(
                "mptcp.cwnd_update", subflow=sf.subflow_index,
                cwnd=round(sf.cwnd, 3), rtt=round(sf.rtt, 6),
                sim_now=round(sf.sim.now, 6))

    def on_loss(self, sf: TcpSender, kind: str) -> None:
        """Record a loss event (fast retransmit or timeout)."""
        self.losses.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "mptcp.loss", subflow=sf.subflow_index, kind=kind,
                cwnd=round(sf.cwnd, 3), sim_now=round(sf.sim.now, 6))


class MptcpConnection:
    """An end-to-end (possibly multipath) transport connection.

    Parameters
    ----------
    sim:
        Owning simulator.
    routes:
        One :class:`Route` per subflow. A single route gives ordinary
        single-path TCP behaviour under whatever controller is supplied.
    controller:
        The coupled congestion controller instance (not shared between
        connections).
    total_bytes:
        Transfer size; ``None`` for an unbounded (long-lived) flow.
    """

    def __init__(
        self,
        sim: "Simulator",
        routes: Sequence[Route],
        controller: "CongestionController",
        *,
        total_bytes: Optional[int] = None,
        mss: int = DEFAULT_MSS,
        initial_cwnd: float = 2.0,
        rcv_buffer_bytes: Optional[int] = None,
        delayed_acks: bool = False,
        name: str = "",
    ):
        if not routes:
            raise ConfigurationError("a connection needs at least one route")
        self.sim = sim
        self.name = name
        self.controller = controller
        total_segments = None
        if total_bytes is not None:
            total_segments = max(1, -(-total_bytes // mss))  # ceil division
        self.supply = SegmentSupply(total_segments)
        rcv_segments = None
        if rcv_buffer_bytes is not None:
            rcv_segments = max(1, rcv_buffer_bytes // mss)
        self.subflows: List[TcpSender] = []
        for route in routes:
            sender = TcpSender(
                sim,
                next(_flow_ids),
                route,
                self.supply,
                mss=mss,
                initial_cwnd=initial_cwnd,
                rcv_buffer_segments=rcv_segments,
                ecn_capable=controller.ecn_capable,
                delayed_acks=delayed_acks,
            )
            sender.controller = controller
            sender.subflow_index = len(self.subflows)
            self.subflows.append(sender)
        controller.attach(self.subflows)
        self.probe: Optional[ConnectionProbe] = None
        session = obs.active_session()
        if session is not None:
            self.probe = ConnectionProbe(session.registry, session.tracer, self)
            for sf in self.subflows:
                sf.probe = self.probe

    # ------------------------------------------------------------------ api

    @property
    def n_subflows(self) -> int:
        """Number of subflows in this connection."""
        return len(self.subflows)

    @property
    def completed(self) -> bool:
        """True once a finite transfer has been fully acknowledged."""
        return self.supply.completed

    @property
    def completion_time(self) -> Optional[float]:
        """Absolute time the last segment was acknowledged, if finished."""
        return self.supply.completion_time

    def start(self, at: float = 0.0) -> None:
        """Start all subflows at absolute time ``at``."""
        for sf in self.subflows:
            sf.start(at)

    def batch_spec(self) -> "BatchConnection":
        """Project this connection onto the batch engine's abstract model.

        Each subflow route collapses to a :class:`~repro.net.batch.scenario.BatchPath`:
        two-way propagation becomes ``base_rtt``, the forward bottleneck
        becomes ``rate_bps``, the route-wide survival product of per-link
        loss becomes ``loss_rate``, and the bottleneck link's queue limit
        becomes ``queue_segments``.  What cannot be projected — cross-flow
        queueing at shared links — is exactly what the batch engine's
        independent-path model abstracts away.
        """
        from repro.net.batch.scenario import BatchConnection, BatchPath

        paths = []
        for sf in self.subflows:
            route = sf.route
            rate = route.min_rate()
            survive = 1.0
            for link in (*route.forward, *route.reverse):
                survive *= 1.0 - link.loss_rate
            bottleneck = min(route.forward, key=lambda l: l.rate_bps)
            queue_limit = getattr(bottleneck.queue, "limit", 100)
            paths.append(
                BatchPath(
                    base_rtt=route.base_rtt(),
                    rate_bps=rate,
                    loss_rate=min(1.0, 1.0 - survive),
                    queue_segments=queue_limit,
                    switch_hops=route.switch_hops(),
                )
            )
        total = self.supply.total
        return BatchConnection(
            paths=tuple(paths),
            algorithm=self.controller.name,
            total_segments=total,
            initial_cwnd=max(1.0, self.subflows[0].initial_cwnd),
            rwnd_segments=float(max(1, self.subflows[0].rwnd)),
            packet_bytes=self.subflows[0].packet_bytes,
        )

    def aggregate_goodput_bps(self, elapsed: Optional[float] = None) -> float:
        """Aggregate goodput in bits/second over the transfer (or ``elapsed``)."""
        starts = [sf.start_time for sf in self.subflows if sf.start_time is not None]
        if not starts:
            return 0.0
        if elapsed is None:
            end = self.completion_time if self.completion_time is not None else self.sim.now
            elapsed = end - min(starts)
        if elapsed <= 0:
            return 0.0
        return self.supply.acked * self.subflows[0].mss * 8 / elapsed

    def total_loss_events(self) -> int:
        """Fast-retransmit plus timeout events across subflows."""
        return sum(sf.loss_events for sf in self.subflows)

    def total_retransmissions(self) -> int:
        """Retransmitted segments across subflows."""
        return sum(sf.retransmitted for sf in self.subflows)

    def mean_rtt(self) -> float:
        """Inflight-weighted mean smoothed RTT across subflows, in seconds."""
        weights = []
        rtts = []
        for sf in self.subflows:
            weights.append(max(sf.cwnd, 1.0))
            rtts.append(sf.rtt)
        total = sum(weights)
        return sum(w * r for w, r in zip(weights, rtts)) / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MptcpConnection {self.name or id(self)} "
            f"{self.n_subflows} subflows, {self.controller.name}>"
        )
