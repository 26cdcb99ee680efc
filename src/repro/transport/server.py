"""The transport server: sans-IO sender cores behind real UDP sockets.

``python -m repro serve`` binds N consecutive UDP ports — one socket per
subflow path — and serves bulk transfers to fetch clients. Each client
connection picks its own congestion controller in its HELLO (live A/B:
two concurrent fetches may run DTS and LIA side by side), gets one
:class:`~repro.transport.core.SenderCore` per path coupled through that
controller and a shared :class:`~repro.transport.core.SegmentSupply`, and has
its host energy integrated by a
:class:`~repro.energy.accounting.TransferEnergyAccount` exactly as the
DES meters do. A :class:`~repro.transport.aio.MetricsHttpServer`
exposes per-subflow cwnd/throughput/energy JSON (``/metrics``), a
:class:`~repro.obs.RunManifest` (``/manifest``) and ``/healthz``.

The live layer rides on the same server session: a
:class:`~repro.obs.SeriesRecorder` samples per-subflow cwnd/throughput
and per-connection energy gauges on ``record_interval`` (``/series``,
``/metrics.prom``), a :class:`~repro.obs.FlightRecorder` keeps the last
N structured events — loss bursts, RTO expiries, path births,
connection lifecycle — (``/events``, dump via ``flight_dump_path``),
and ``/dashboard`` serves a self-contained HTML page fed live by the
``/stream`` SSE route.

The asyncio side owns exactly what the simulator owns in the DES host:
sockets, timers, and the clock (``loop.time``). All transport decisions —
what to send, when something is lost, how windows move — happen inside
the cores.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.algorithms import create_controller
from repro.energy.accounting import TransferEnergyAccount
from repro.energy.cpu import HostPowerModel, default_wired_host
from repro.errors import ConfigurationError, ReproError
from repro.obs.flight import DEFAULT_CAPACITY as FLIGHT_CAPACITY
from repro.obs.timeseries import DEFAULT_CAPACITY as SERIES_CAPACITY
from repro.transport.aio import (
    Addr,
    DatagramEndpoint,
    LossyTransport,
    MetricsHttpServer,
    open_endpoint,
)
from repro.transport.core import PathProfile, SegmentSupply, SenderCore
from repro.transport.wire import (
    AckSegment,
    ByeSegment,
    HelloSegment,
    Segment,
    encode_bye,
    encode_data,
    encode_hello_ack,
)

#: Default data payload per segment — fits a 1500-byte MTU with headroom.
DEFAULT_PAYLOAD_BYTES = 1200

#: A connection with no client traffic for this long is torn down.
IDLE_TIMEOUT = 30.0

#: Energy/metrics sampling cadence of a running connection, and so the
#: longest its timer sleeps.
TICK_CAP = 0.05

#: Frozen ``snapshot()`` rows of retired connections a server keeps for
#: ``/metrics`` and ``/manifest`` (oldest out). A constant, not an
#: option: the one thing it trades is how far back a scrape can read.
RETIRED_ROWS = 1024

#: Most recent finishers whose gauges stay in the registry and the
#: series recorder, so a dashboard still shows the transfer that just
#: ended; sized to a screenful, not to a deployment.
RETIRED_TELEMETRY = 16

#: Deterministic payload template; segments slice out of it.
_PAYLOAD_TEMPLATE = bytes(range(256)) * 256


def make_payload(seq: int, size: int) -> bytes:
    """Deterministic payload for segment ``seq`` (cheap, verifiable)."""
    offset = (seq * 7) % 256
    return _PAYLOAD_TEMPLATE[offset:offset + size]


class ServedConnection:
    """Sender-side state of one client connection (N subflow cores).

    Half-open from the first HELLO until every path is up, running from
    :meth:`start` to :meth:`retire`; the owning server decides when each
    transition happens and holds the timer that drives it.
    """

    def __init__(
        self,
        conn_id: int,
        params: dict,
        n_paths: int,
        clock,
        *,
        host_model: HostPowerModel,
        registry: "Optional[obs.MetricsRegistry]" = None,
        flight: "Optional[obs.FlightRecorder]" = None,
        tracer: "obs.Tracer | obs.NullTracer" = obs.NULL_TRACER,
    ):
        self.conn_id = conn_id
        self.params = params
        self.clock = clock
        self.registry = registry
        self.flight = flight
        self.tracer = tracer
        #: Validated client trace context from the HELLO (or None): the
        #: remote parent this connection's spans join.
        self.traceparent: Optional[str] = (
            params.get("traceparent")
            if obs.parse_traceparent(params.get("traceparent")) is not None
            else None)
        self._span_conn: Optional[obs.SpanHandle] = None
        self._span_subflows: "List[obs.SpanHandle]" = []
        self.controller_name = str(params.get("controller", "lia"))
        self.controller = create_controller(self.controller_name)
        total_segments = int(params["total_segments"])
        self.payload_bytes = int(params.get("payload_bytes", DEFAULT_PAYLOAD_BYTES))
        if not 1 <= self.payload_bytes <= 65000:
            raise ConfigurationError(
                f"payload_bytes out of range: {self.payload_bytes}")
        self.supply = SegmentSupply(total_segments)
        self.cores: List[SenderCore] = [
            SenderCore(
                self.supply,
                clock=clock,
                subflow_index=i,
                mss=self.payload_bytes,
                ecn_capable=self.controller.ecn_capable,
                path=PathProfile(base_rtt=0.05, switch_hops=0),
            )
            for i in range(n_paths)
        ]
        for core in self.cores:
            core.controller = self.controller
        self.controller.attach(self.cores)
        #: path_id -> (sendto-capable transport, client address)
        self.paths: Dict[int, Tuple[object, Addr]] = {}
        self.energy = TransferEnergyAccount(host_model)
        self._last_acked = [0] * n_paths
        self._last_sample: Optional[float] = None
        # Live-series gauges (one per subflow + per connection) feed the
        # session's SeriesRecorder; registered by start(), so a half-open
        # connection costs no instruments. None outside a recording server.
        self._g_cwnd = self._g_tput = None
        self._g_energy = self._g_power = None
        # Flight-event baselines: counter deltas become loss/rto events.
        self._fl_loss = [0] * n_paths
        self._fl_rto = [0] * n_paths
        self._fl_frtx = [0] * n_paths
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.last_activity = clock()
        self.client_done = False
        #: The owning server's one pending ``call_at`` for this connection.
        self.timer: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------- control

    @property
    def n_paths(self) -> int:
        return len(self.cores)

    @property
    def running(self) -> bool:
        return self.started_at is not None and self.finished_at is None

    def gauge_names(self) -> List[str]:
        """Registry names of the ``2 + 2 * n_paths`` gauges :meth:`start`
        registered (none on a half-open connection)."""
        if self._g_cwnd is None:
            return []
        return [g.name for g in (*self._g_cwnd, *self._g_tput,
                                 self._g_energy, self._g_power)]

    def add_path(self, path_id: int, transport, addr: Addr) -> bool:
        """Register a HELLO'd path; True when all paths are present."""
        self.paths[path_id] = (transport, addr)
        self.last_activity = self.clock()
        return len(self.paths) == self.n_paths

    def start(self) -> None:
        """All paths are up: open every subflow window."""
        now = self.clock()
        self.started_at = now
        if self.registry is not None:
            pref = f"transport.c{self.conn_id}"
            self._g_cwnd = [self.registry.gauge(f"{pref}.p{i}.cwnd")
                            for i in range(self.n_paths)]
            self._g_tput = [self.registry.gauge(f"{pref}.p{i}.throughput_bps")
                            for i in range(self.n_paths)]
            self._g_energy = self.registry.gauge(f"{pref}.energy_j")
            self._g_power = self.registry.gauge(f"{pref}.power_w")
        if self.tracer.enabled:
            # Detached spans (finished at teardown): the connection span
            # joins the client's trace via the HELLO traceparent; each
            # subflow span parents under the connection span.
            self._span_conn = self.tracer.start_span(
                "serve.connection", parent=self.traceparent,
                conn=self.conn_id, controller=self.controller_name,
                n_subflows=self.n_paths, total_segments=self.supply.total,
                payload_bytes=self.payload_bytes)
            self._span_subflows = [
                self.tracer.start_span("serve.subflow",
                                       parent=self._span_conn,
                                       conn=self.conn_id, path=i)
                for i in range(self.n_paths)
            ]
        self._sample_energy(now)  # anchor the trapezoid at t0
        for core in self.cores:
            core.start()
        self.flush()

    def flush(self) -> None:
        """Move every core's pending emits onto the wire."""
        for core in self.cores:
            ops = core.take_emits()
            if not ops:
                continue
            entry = self.paths.get(core.subflow_index)
            if entry is None:
                continue
            transport, addr = entry
            now = self.clock()
            for op in ops:
                datagram = encode_data(
                    self.conn_id,
                    core.subflow_index,
                    op.seq,
                    now,
                    make_payload(op.seq, self.payload_bytes),
                    ecn_capable=core.ecn_capable,
                )
                transport.sendto(datagram, addr)

    def on_ack(self, segment: AckSegment) -> None:
        """Feed one client ACK into its path's core."""
        if not 0 <= segment.path_id < self.n_paths:
            return
        self.last_activity = self.clock()
        core = self.cores[segment.path_id]
        if not core.started:
            return
        sack = segment.sack_seqs[0] if segment.sack_seqs else -1
        core.on_ack(
            segment.ack_seq,
            sack_seq=sack,
            ecn_echo=segment.ecn_echo,
            echo_time=segment.echo_time,
        )
        self.flush()
        self._probe_flight()

    def tick(self) -> None:
        """Fire due RTOs and sample energy when a sample is due."""
        for core in self.cores:
            core.on_tick()
        self.flush()
        self._probe_flight()
        now = self.clock()
        if now - self._last_sample >= TICK_CAP / 2:
            self._sample_energy(now)

    def next_deadline(self) -> float:
        """When a running connection next needs :meth:`tick`: its
        earliest RTO expiry or its next energy sample."""
        return min(self._last_sample + TICK_CAP,
                   *(core.rto_deadline for core in self.cores))

    def _sample_energy(self, now: float) -> None:
        """Push one (throughput, rtt)-per-path power sample at ``now``."""
        dt = (now - self._last_sample) if self._last_sample is not None else 0.0
        paths = []
        for i, core in enumerate(self.cores):
            delta = core.acked - self._last_acked[i]
            self._last_acked[i] = core.acked
            bps = delta * self.payload_bytes * 8 / dt if dt > 0 else 0.0
            paths.append((bps, core.rtt))
            if self._g_cwnd is not None and self._g_tput is not None:
                self._g_cwnd[i].set(core.cwnd)
                if dt > 0:
                    self._g_tput[i].set(bps)
        self.energy.sample(now, paths)
        self._last_sample = now
        if self._g_energy is not None and self._g_power is not None:
            self._g_energy.set(self.energy.energy_j)
            self._g_power.set(self.energy.mean_power_w)

    def _probe_flight(self) -> None:
        """Turn per-core counter deltas into flight events (and, when
        tracing, instants parented under the subflow's span)."""
        if self.flight is None and not self.tracer.enabled:
            return
        traced = bool(self._span_subflows)
        for i, core in enumerate(self.cores):
            if core.loss_events > self._fl_loss[i]:
                if self.flight is not None:
                    self.flight.record(
                        "loss", conn=self.conn_id, path=i,
                        new=core.loss_events - self._fl_loss[i],
                        total=core.loss_events, cwnd=core.cwnd)
                if traced:
                    self._span_subflows[i].instant(
                        "serve.loss", conn=self.conn_id, path=i,
                        total=core.loss_events, cwnd=core.cwnd)
                self._fl_loss[i] = core.loss_events
            if core.timeouts > self._fl_rto[i]:
                if self.flight is not None:
                    self.flight.record(
                        "rto", conn=self.conn_id, path=i,
                        new=core.timeouts - self._fl_rto[i],
                        total=core.timeouts, rto_s=core.rto)
                if traced:
                    self._span_subflows[i].instant(
                        "serve.rto", conn=self.conn_id, path=i,
                        total=core.timeouts, rto_s=core.rto)
                self._fl_rto[i] = core.timeouts
            if core.fast_retransmits > self._fl_frtx[i]:
                if self.flight is not None:
                    self.flight.record(
                        "fast_retransmit", conn=self.conn_id, path=i,
                        new=core.fast_retransmits - self._fl_frtx[i],
                        total=core.fast_retransmits)
                self._fl_frtx[i] = core.fast_retransmits

    def retire(self, outcome: str) -> dict:
        """End a started connection: closing energy sample (so short
        transfers integrate too), spans finished, the clock stopped;
        returns the frozen :meth:`snapshot` row."""
        now = self.clock()
        if now > self._last_sample:
            self._sample_energy(now)
        self.finished_at = now
        row = self.snapshot()
        for handle, core in zip(self._span_subflows, self.cores):
            handle.finish(acked=core.acked,
                          retransmitted=core.retransmitted,
                          timeouts=core.timeouts,
                          loss_events=core.loss_events)
        if self._span_conn is not None:
            self._span_conn.finish(
                outcome=outcome,
                acked_segments=row["acked_segments"],
                energy_j=round(row["energy_j"], 6),
                elapsed_s=round(row["elapsed_s"], 6))
        # controller <-> cores is this object graph's one reference
        # cycle; cut, the cores go when the connection's last reference
        # does instead of waiting for a gen-2 collection.
        for core in self.cores:
            core.controller = None
        return row

    # ------------------------------------------------------------ reporting

    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else self.clock()
        return max(end - self.started_at, 0.0)

    def snapshot(self) -> dict:
        """Per-subflow cwnd/throughput/energy JSON for ``/metrics``."""
        elapsed = self.elapsed()
        subflows = []
        for core in self.cores:
            goodput = (
                core.acked * self.payload_bytes * 8 / elapsed if elapsed > 0 else 0.0
            )
            subflows.append({
                "path_id": core.subflow_index,
                "cwnd": core.cwnd,
                "ssthresh": min(core.ssthresh, 1e12),
                "srtt_s": core.srtt,
                "rtt_s": core.rtt,
                "base_rtt_s": core.base_rtt if core.base_rtt != float("inf") else None,
                "rto_s": core.rto,
                "acked_segments": core.acked,
                "packets_sent": core.packets_sent,
                "retransmitted": core.retransmitted,
                "fast_retransmits": core.fast_retransmits,
                "timeouts": core.timeouts,
                "loss_events": core.loss_events,
                "throughput_bps": goodput,
            })
        total_bits = self.supply.acked * self.payload_bytes * 8
        return {
            "conn_id": self.conn_id,
            "controller": self.controller_name,
            "n_subflows": self.n_paths,
            "payload_bytes": self.payload_bytes,
            "total_segments": self.supply.total,
            "acked_segments": self.supply.acked,
            "completed": self.supply.completed,
            "elapsed_s": elapsed,
            "aggregate_goodput_bps": total_bits / elapsed if elapsed > 0 else 0.0,
            "energy_j": self.energy.energy_j,
            "mean_power_w": self.energy.mean_power_w,
            "subflows": subflows,
        }


class TransportServer:
    """N UDP subflow sockets + connection registry + metrics endpoint."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        base_port: int = 0,
        n_ports: int = 2,
        loss_rate: float = 0.0,
        loss_seed: Optional[int] = None,
        metrics_port: Optional[int] = None,
        host_model: Optional[HostPowerModel] = None,
        idle_timeout: float = IDLE_TIMEOUT,
        record_interval: float = 0.5,
        flight_capacity: int = FLIGHT_CAPACITY,
        flight_dump_path: Optional[str] = None,
        trace: bool = False,
    ):
        if n_ports < 1:
            raise ConfigurationError(f"need at least one port, got {n_ports}")
        self.host = host
        self.base_port = base_port
        self.n_ports = n_ports
        self.loss_rate = loss_rate
        self.loss_seed = loss_seed
        self.metrics_port = metrics_port
        self.host_model = host_model if host_model is not None else default_wired_host()
        self.idle_timeout = idle_timeout
        self.record_interval = record_interval
        self.ports: List[int] = []
        #: Live connections only (half-open or running), by conn id.
        self.connections: Dict[int, ServedConnection] = {}
        #: conn id -> frozen row of a retired connection, oldest first.
        self.retired_rows: "OrderedDict[int, dict]" = OrderedDict()
        #: conn id -> gauge names of a recent finisher, oldest first.
        self._retired_telemetry: "OrderedDict[int, List[str]]" = OrderedDict()
        self.completed_connections = 0
        self.session = obs.ObsSession(label="transport-serve", trace=trace)
        self.tracer = self.session.tracer
        # Read at construction, so a test can shrink the rings.
        self.recorder = self.session.attach_series(
            interval=record_interval, capacity=SERIES_CAPACITY)
        self.flight = self.session.attach_flight(
            capacity=flight_capacity, dump_path=flight_dump_path)
        registry = self.session.registry
        self._hello_counter = registry.counter("transport.hellos")
        self._hello_rejected_counter = registry.counter(
            "transport.hellos_rejected")
        self._ack_counter = registry.counter("transport.acks_received")
        self._live_gauge = registry.gauge("transport.connections_live")
        self._retired_counter = registry.counter(
            "transport.connections_retired")
        self._endpoints: List[DatagramEndpoint] = []
        self._transports: List[object] = []
        self._raw_transports: List[object] = []
        self._metrics: Optional[MetricsHttpServer] = None
        self._record_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_completed: "asyncio.Queue[int]" = None  # type: ignore[assignment]

    # ---------------------------------------------------------------- clock

    def now(self) -> float:
        assert self._loop is not None
        return self._loop.time()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> List[int]:
        """Bind all subflow sockets (and the metrics endpoint); returns
        the bound UDP ports, one per path."""
        self._loop = asyncio.get_running_loop()
        self._conn_completed = asyncio.Queue(maxsize=RETIRED_ROWS)
        for i in range(self.n_ports):
            port = 0 if self.base_port == 0 else self.base_port + i
            transport, endpoint = await open_endpoint(
                self._make_handler(i), local_addr=(self.host, port),
                on_bad_datagram=self._make_bad_datagram_probe(i))
            send_transport: object = transport
            if self.loss_rate > 0.0:
                seed = None if self.loss_seed is None else self.loss_seed + i
                send_transport = LossyTransport(transport, self.loss_rate, seed)
            self._raw_transports.append(transport)
            self._transports.append(send_transport)
            self._endpoints.append(endpoint)
            self.ports.append(endpoint.local_port())
        if self.metrics_port is not None:
            from repro.obs.dashboard import live_routes

            # A process's first manifest probes its environment (git,
            # platform, the installed numpy; ~30 ms, then cached): paid
            # here, before a connection exists, not by the first
            # /manifest scrape with every connection's ACKs waiting.
            obs.RunManifest.capture()
            self._metrics = MetricsHttpServer(
                {
                    "/metrics": self.metrics_snapshot,
                    "/manifest": self.manifest_snapshot,
                    "/healthz": lambda: {"status": "ok", "ports": self.ports},
                    "/trace": self.trace_route,
                    **live_routes(self.session.registry, self.recorder, self.flight,
                                  title="repro transport - live telemetry",
                                  interval=self.record_interval),
                },
                host=self.host,
                port=self.metrics_port,
            )
            self.metrics_port = await self._metrics.start()
        if self.record_interval > 0:
            self._record_task = asyncio.ensure_future(self._record_loop())
        return list(self.ports)

    async def stop(self) -> None:
        """Tear everything down."""
        if self._record_task is not None:
            self._record_task.cancel()
            try:
                await self._record_task
            except asyncio.CancelledError:
                pass
            self._record_task = None
        for conn in list(self.connections.values()):
            self._retire(conn, "server_stop")
        for transport in self._raw_transports:
            transport.close()
        self._raw_transports.clear()
        self._transports.clear()
        self._endpoints.clear()
        if self._metrics is not None:
            await self._metrics.stop()
            self._metrics = None

    async def wait_connection_complete(self) -> int:
        """Block until some started connection retires; returns its conn
        id (its row is in :attr:`retired_rows`). Completions nobody
        waits for are dropped oldest-first beyond ``RETIRED_ROWS``."""
        return await self._conn_completed.get()

    async def _record_loop(self) -> None:
        """Sample the series recorder on its cadence until cancelled."""
        while True:
            await asyncio.sleep(self.record_interval)
            self.recorder.sample()

    # ------------------------------------------------------------- datagrams

    def _make_handler(self, path_index: int):
        def handler(segment: Segment, addr: Addr) -> None:
            self._on_segment(path_index, segment, addr)
        return handler

    def _make_bad_datagram_probe(self, path_index: int):
        def probe(n_bytes: int) -> None:
            self.flight.record("bad_datagram", path=path_index,
                               bytes=n_bytes)
            if self.tracer.enabled:
                self.tracer.instant("serve.bad_datagram",
                                    path=path_index, bytes=n_bytes)
        return probe

    def _on_segment(self, path_index: int, segment: Segment, addr: Addr) -> None:
        if isinstance(segment, HelloSegment):
            self._on_hello(path_index, segment, addr)
        elif isinstance(segment, AckSegment):
            conn = self.connections.get(segment.conn_id)
            if conn is not None:
                self._ack_counter.inc()
                conn.on_ack(segment)
                # Set once by the ACK that completes the supply (a plain
                # attribute: this runs per ACK).
                if conn.supply.completion_time is not None:
                    self._retire(conn, "done")
        elif isinstance(segment, ByeSegment):
            conn = self.connections.get(segment.conn_id)
            if conn is not None:
                # The client is gone, but ACKs it sent before the BYE
                # may still sit in another path's socket: they get one
                # sampling period to land and complete the transfer
                # before it is booked as abandoned.
                conn.client_done = True
                self._arm(conn, self.now() + TICK_CAP)

    def _on_hello(self, path_index: int, segment: HelloSegment, addr: Addr) -> None:
        self._hello_counter.inc()
        # Only live connections are looked up: a HELLO under an id that
        # already retired (clients in fresh processes may reuse ids)
        # opens a new connection, it does not replay the old one.
        conn = self.connections.get(segment.conn_id)
        if conn is None:
            try:
                n_subflows = int(segment.params["n_subflows"])
                if not 1 <= n_subflows <= self.n_ports:
                    raise ConfigurationError(
                        f"client asked for {n_subflows} subflows, "
                        f"server has {self.n_ports} ports")
                conn = ServedConnection(
                    segment.conn_id,
                    segment.params,
                    n_subflows,
                    self.now,
                    host_model=self.host_model,
                    registry=self.session.registry,
                    flight=self.flight,
                    tracer=self.tracer,
                )
            except (KeyError, ValueError, TypeError, OverflowError,
                    ReproError) as exc:
                # Malformed or unsatisfiable HELLO (a missing, null or
                # infinite field, an unknown controller, more subflows
                # than ports): no state, no reply, one event.
                self._hello_rejected_counter.inc()
                self.flight.record(
                    "hello_rejected", conn=segment.conn_id,
                    path=segment.path_id,
                    reason=f"{type(exc).__name__}: {exc}")
                return
            self.connections[segment.conn_id] = conn
            self._live_gauge.set(len(self.connections))
            # Armed at creation, so a handshake that never finishes is
            # reaped like any other idle connection.
            self._arm(conn, conn.last_activity + self.idle_timeout)
        transport = self._transports[path_index]
        # HELLO is idempotent — clients retransmit until the HELLO_ACK
        # gets through; re-register the (possibly re-mapped) address.
        new_path = segment.path_id not in conn.paths
        all_up = conn.add_path(segment.path_id, transport, addr)
        if new_path:
            self.flight.record("path_up", conn=segment.conn_id,
                               path=segment.path_id, addr=f"{addr[0]}:{addr[1]}")
        transport.sendto(
            encode_hello_ack(
                segment.conn_id, segment.path_id,
                {"payload_bytes": conn.payload_bytes,
                 "total_segments": conn.supply.total}),
            addr)
        if all_up and conn.started_at is None:
            # Under a reused id the previous finisher's gauges give way
            # to this connection's.
            self._release_telemetry(conn.conn_id)
            conn.start()
            self.flight.record("conn_start", conn=conn.conn_id,
                               controller=conn.controller_name,
                               n_subflows=conn.n_paths,
                               total_segments=conn.supply.total)
            self._arm(conn, conn.next_deadline())

    # ------------------------------------------------------------- lifecycle

    def _arm(self, conn: ServedConnection, deadline: float) -> None:
        """Aim the connection's one timer at ``deadline``. The loop's
        timer heap is the deadline-ordered wheel: no task per connection,
        nothing to await on the way out."""
        if conn.timer is not None:
            conn.timer.cancel()
        conn.timer = self._loop.call_at(
            max(deadline, self.now() + 0.001), self._on_timer, conn)

    def _on_timer(self, conn: ServedConnection) -> None:
        """The connection's deadline arrived: reap it if its client
        left or went quiet, else fire due RTOs, take the due energy
        sample and re-aim at the next deadline."""
        expiry = conn.last_activity + self.idle_timeout
        if conn.client_done:
            self._retire(conn, "client_done")
        elif self.now() >= expiry:
            self._retire(
                conn, "idle" if conn.started_at is not None else "half_open")
        elif conn.started_at is not None:
            conn.tick()
            self._arm(conn, min(expiry, conn.next_deadline()))
        else:
            self._arm(conn, expiry)

    def _retire(self, conn: ServedConnection, outcome: str) -> None:
        """The one exit of a served connection, whatever ended it
        (``done``, ``client_done``, ``idle``, ``half_open``,
        ``server_stop``): out of :attr:`connections`, timer cancelled,
        one flight event. A connection that ran also gets its closing
        energy sample, finished spans, a row in :attr:`retired_rows`, a
        place among the recent finishers whose gauges survive, and an
        entry in the completion queue."""
        del self.connections[conn.conn_id]
        self._live_gauge.set(len(self.connections))
        self._retired_counter.inc()
        if conn.timer is not None:
            conn.timer.cancel()
            conn.timer = None
        if conn.started_at is not None:
            self.retired_rows.pop(conn.conn_id, None)  # id reuse: newest wins
            self.retired_rows[conn.conn_id] = conn.retire(outcome)
            if len(self.retired_rows) > RETIRED_ROWS:
                self.retired_rows.popitem(last=False)
            self._retired_telemetry[conn.conn_id] = conn.gauge_names()
            if len(self._retired_telemetry) > RETIRED_TELEMETRY:
                self._release_telemetry(next(iter(self._retired_telemetry)))
            if self._conn_completed.full():
                self._conn_completed.get_nowait()
            self._conn_completed.put_nowait(conn.conn_id)
        if outcome == "done":
            # Tell the client (best effort); its own in-order count has
            # already decided its completion.
            for path_id, (transport, addr) in conn.paths.items():
                transport.sendto(encode_bye(conn.conn_id, path_id), addr)
            self.completed_connections += 1
            self.flight.record(
                "conn_done", conn=conn.conn_id,
                elapsed_s=round(conn.elapsed(), 6),
                energy_j=round(conn.energy.energy_j, 6))
        else:
            self.flight.record(
                "conn_dropped", conn=conn.conn_id, reason=outcome,
                acked=conn.supply.acked, total=conn.supply.total)

    def _release_telemetry(self, conn_id: int) -> None:
        """Drop a retired connection's gauges from the registry and
        their rings from the recorder (no-op for an unknown id)."""
        for name in self._retired_telemetry.pop(conn_id, ()):
            self.session.registry.remove(name)
            self.recorder.forget(name)

    # ------------------------------------------------------------- reporting

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` document."""
        return {
            "server": {
                "ports": self.ports,
                "loss_rate": self.loss_rate,
                "active_connections": sum(
                    1 for c in self.connections.values() if c.running),
                "half_open_connections": sum(
                    1 for c in self.connections.values()
                    if c.started_at is None),
                "completed_connections": self.completed_connections,
                "retired_rows": len(self.retired_rows),
                "retired_rows_capacity": RETIRED_ROWS,
                "bad_datagrams": sum(e.bad_datagrams for e in self._endpoints),
                "datagrams_received": sum(
                    e.datagrams_received for e in self._endpoints),
            },
            "connections": self.connection_rows(),
            "registry": self.session.registry.snapshot(),
        }

    def connection_rows(self) -> Dict[str, dict]:
        """One row per connection, by conn id: the frozen rows of the
        retired ones under the live snapshots (a half-open connection
        under a reused id does not hide the finished transfer's row)."""
        rows = dict(self.retired_rows)
        for cid, conn in self.connections.items():
            if conn.started_at is not None or cid not in rows:
                rows[cid] = conn.snapshot()
        return {str(cid): rows[cid] for cid in sorted(rows)}

    def trace_shard(self, process_name: str = "repro-serve") -> Optional[dict]:
        """This server's trace shard (``repro.obs.trace/1``), or None
        when the server was started without ``trace=True``."""
        if not self.tracer.enabled:
            return None
        return self.tracer.shard_dict(process_name)

    def trace_route(self) -> dict:
        """The ``/trace`` document: the live trace shard so far."""
        shard = self.trace_shard()
        if shard is None:
            return {"enabled": False,
                    "hint": "start the server with --trace to record spans"}
        return shard

    def manifest_snapshot(self) -> dict:
        """The ``/manifest`` document (run provenance)."""
        self.session.annotate(
            ports=list(self.ports),
            loss_rate=self.loss_rate,
            connections=self.connection_rows(),
        )
        return self.session.manifest().to_json_dict()

