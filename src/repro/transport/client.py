"""The fetch client: receiver cores pulling a transfer over N subflows.

``python -m repro fetch`` opens one connected UDP socket per subflow,
performs a HELLO handshake on each path (naming the congestion
controller the *server* should run for this connection — live A/B
between concurrent fetches), then acknowledges data segments through
per-path :class:`~repro.transport.core.ReceiverCore` instances until the
whole transfer has arrived in order.

:func:`loopback_selftest` wires a :class:`~repro.transport.server.
TransportServer` and a fetch together in one event loop over loopback
with injected loss — the CI smoke path and the bench case.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.transport.aio import (
    Addr,
    DatagramEndpoint,
    LossyTransport,
    MetricsHttpServer,
    open_endpoint,
)
from repro.transport.core import ReceiverCore
from repro.transport.server import DEFAULT_PAYLOAD_BYTES, TransportServer
from repro.transport.wire import (
    AckSegment,
    ByeSegment,
    DataSegment,
    HelloAckSegment,
    Segment,
    encode_ack,
    encode_bye,
    encode_hello,
)

HELLO_RETRY = 0.2
HELLO_ATTEMPTS = 50


@dataclass
class SubflowStats:
    """Receiver-side view of one path."""

    path_id: int
    port: int
    packets_received: int = 0
    bytes_received: int = 0
    duplicates: int = 0
    acks_sent: int = 0
    segments_in_order: int = 0


@dataclass
class FetchResult:
    """Outcome of one fetch."""

    controller: str
    n_subflows: int
    total_segments: int
    payload_bytes: int
    elapsed_s: float
    bytes_received: int
    goodput_bps: float
    subflows: List[SubflowStats] = field(default_factory=list)
    bad_datagrams: int = 0
    server_metrics: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "controller": self.controller,
            "n_subflows": self.n_subflows,
            "total_segments": self.total_segments,
            "payload_bytes": self.payload_bytes,
            "elapsed_s": self.elapsed_s,
            "bytes_received": self.bytes_received,
            "goodput_bps": self.goodput_bps,
            "bad_datagrams": self.bad_datagrams,
            "subflows": [vars(s) for s in self.subflows],
        }


class FetchConnection:
    """Client-side state: one ReceiverCore + socket per path."""

    def __init__(
        self,
        conn_id: int,
        host: str,
        ports: List[int],
        *,
        controller: str,
        total_segments: int,
        payload_bytes: int,
        loss_rate: float = 0.0,
        loss_seed: Optional[int] = None,
        flight: "Optional[obs.FlightRecorder]" = None,
        tracer: "obs.Tracer | obs.NullTracer" = obs.NULL_TRACER,
        traceparent: Optional[str] = None,
    ):
        if not ports:
            raise ConfigurationError("fetch needs at least one port")
        self.conn_id = conn_id
        self.flight = flight
        self.tracer = tracer
        self.traceparent = traceparent
        self.host = host
        self.ports = list(ports)
        self.controller = controller
        self.total_segments = total_segments
        self.payload_bytes = payload_bytes
        self.loss_rate = loss_rate
        self.loss_seed = loss_seed
        self.receivers = [ReceiverCore(subflow_index=i)
                          for i in range(len(ports))]
        self._transports: List[object] = []
        self._raw_transports: List[object] = []
        self._endpoints: List[DatagramEndpoint] = []
        self._hello_acked: List[Optional[asyncio.Future]] = [None] * len(ports)
        self._complete: Optional[asyncio.Future] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def received_in_order(self) -> int:
        return sum(r.rcv_next for r in self.receivers)

    @property
    def completed(self) -> bool:
        return self.received_in_order >= self.total_segments

    async def connect(self) -> None:
        """Open sockets and complete the HELLO handshake on every path."""
        self._loop = asyncio.get_running_loop()
        self._complete = self._loop.create_future()
        self._hello_acked = [self._loop.create_future() for _ in self.ports]
        for i, port in enumerate(self.ports):
            transport, endpoint = await open_endpoint(
                self._make_handler(i), remote_addr=(self.host, port))
            send_transport: object = transport
            if self.loss_rate > 0.0:
                # Client-side loss shim covers the reverse (ACK) path.
                seed = None if self.loss_seed is None else self.loss_seed + 100 + i
                send_transport = LossyTransport(transport, self.loss_rate, seed)
            self._raw_transports.append(transport)
            self._transports.append(send_transport)
            self._endpoints.append(endpoint)
        hello_params = {
            "controller": self.controller,
            "n_subflows": len(self.ports),
            "total_segments": self.total_segments,
            "payload_bytes": self.payload_bytes,
        }
        async def handshake(i: int) -> None:
            datagram = encode_hello(self.conn_id, i, hello_params,
                                    traceparent=self.traceparent)
            for attempt in range(HELLO_ATTEMPTS):
                if attempt > 0 and self.flight is not None:
                    self.flight.record("hello_retry", conn=self.conn_id,
                                       path=i, attempt=attempt + 1)
                self._transports[i].sendto(datagram)
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._hello_acked[i]), HELLO_RETRY)
                    if self.tracer.enabled:
                        self.tracer.instant("fetch.hello_ack", conn=self.conn_id,
                                            path=i, attempts=attempt + 1)
                    return
                except asyncio.TimeoutError:
                    continue
            if self.flight is not None:
                self.flight.record("hello_failed", conn=self.conn_id, path=i,
                                   attempts=HELLO_ATTEMPTS)
            raise ConnectionError(
                f"path {i}: no HELLO_ACK from {self.host}:{self.ports[i]} "
                f"after {HELLO_ATTEMPTS} attempts")
        self.started_at = self._loop.time()
        await asyncio.gather(*(handshake(i) for i in range(len(self.ports))))

    async def wait_complete(self, timeout: float) -> None:
        """Block until the transfer fully arrives (or raise TimeoutError)."""
        assert self._complete is not None
        await asyncio.wait_for(self._complete, timeout)

    def close(self) -> None:
        for i in range(len(self._raw_transports)):
            try:
                self._transports[i].sendto(encode_bye(self.conn_id, i))
            except Exception:
                pass
            self._raw_transports[i].close()

    # ------------------------------------------------------------- datagrams

    def _make_handler(self, path_index: int):
        def handler(segment: Segment, addr: Addr) -> None:
            self._on_segment(path_index, segment)
        return handler

    def _on_segment(self, path_index: int, segment: Segment) -> None:
        if isinstance(segment, DataSegment):
            if segment.conn_id != self.conn_id or segment.path_id != path_index:
                return
            receiver = self.receivers[path_index]
            ack = receiver.on_data(
                segment.seq, segment.sent_time, len(segment.payload))
            sacks = (ack.sack_seq,) if ack.sack_seq >= 0 else ()
            self._transports[path_index].sendto(
                encode_ack(self.conn_id, path_index, ack.ack_seq,
                           ack.echo_time, sacks))
            if self.completed and self._complete is not None \
                    and not self._complete.done():
                self.finished_at = self._loop.time() if self._loop else None
                self._complete.set_result(None)
        elif isinstance(segment, HelloAckSegment):
            fut = self._hello_acked[path_index]
            if fut is not None and not fut.done():
                fut.set_result(segment.params)
        elif isinstance(segment, ByeSegment):
            # Server-side completion signal; in-order bookkeeping already
            # decides our own completion, so nothing further to do.
            pass

    # ------------------------------------------------------------- reporting

    def result(self, controller: str) -> FetchResult:
        end = self.finished_at
        if end is None:
            end = self._loop.time() if self._loop else 0.0
        elapsed = max(end - (self.started_at or end), 1e-9)
        total_bytes = self.received_in_order * self.payload_bytes
        subflows = [
            SubflowStats(
                path_id=i,
                port=self.ports[i],
                packets_received=r.packets_received,
                bytes_received=r.bytes_received,
                duplicates=r.duplicates,
                acks_sent=r.packets_received,
                segments_in_order=r.rcv_next,
            )
            for i, r in enumerate(self.receivers)
        ]
        return FetchResult(
            controller=controller,
            n_subflows=len(self.ports),
            total_segments=self.total_segments,
            payload_bytes=self.payload_bytes,
            elapsed_s=elapsed,
            bytes_received=total_bytes,
            goodput_bps=total_bytes * 8 / elapsed,
            subflows=subflows,
            bad_datagrams=sum(e.bad_datagrams for e in self._endpoints),
        )


async def fetch(
    host: str,
    ports: List[int],
    *,
    controller: str = "dts",
    total_bytes: int = 4 * 1024 * 1024,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    conn_id: int = 0,
    loss_rate: float = 0.0,
    loss_seed: Optional[int] = None,
    timeout: float = 120.0,
    metrics_port: Optional[int] = None,
    tracer: "obs.Tracer | obs.NullTracer | None" = None,
) -> FetchResult:
    """Download ``total_bytes`` from a transport server; returns the result.

    With a ``tracer`` (explicit, or the ambient session's when tracing
    is on), the whole download runs under a ``fetch.transfer`` span
    whose traceparent rides the HELLO to the server — the server's
    connection/subflow spans parent under it, so a merged trace shows
    one causal timeline across both processes.
    """
    import os

    if tracer is None:
        tracer = obs.current_tracer()
    total_segments = max(1, -(-total_bytes // payload_bytes))
    # Random default id: concurrent fetches from separate processes must
    # not collide on the server (a counter would restart at 1 per process).
    conn = FetchConnection(
        conn_id if conn_id else (int.from_bytes(os.urandom(2), "big") or 1),
        host,
        ports,
        controller=controller,
        total_segments=total_segments,
        payload_bytes=payload_bytes,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        tracer=tracer,
    )
    metrics: Optional[MetricsHttpServer] = None
    session = obs.ObsSession(label="transport-fetch")
    conn.flight = session.attach_flight(capacity=256)
    try:
        if metrics_port is not None:
            def client_metrics() -> dict:
                return {
                    "client": conn.result(controller).to_dict(),
                    "registry": session.registry.snapshot(),
                    "events": session.flight.snapshot(limit=50)
                    if session.flight is not None else None,
                }
            metrics = MetricsHttpServer(
                {"/metrics": client_metrics,
                 "/healthz": lambda: {"status": "ok"}},
                port=metrics_port)
            await metrics.start()
        with tracer.span("fetch.transfer", conn=conn.conn_id,
                         controller=controller, subflows=len(ports),
                         total_bytes=total_bytes):
            # The transfer span is the remote parent the server joins.
            conn.traceparent = tracer.current_traceparent()
            with tracer.span("fetch.connect", paths=len(ports)):
                await conn.connect()
            await conn.wait_complete(timeout)
        return conn.result(controller)
    finally:
        conn.close()
        if metrics is not None:
            await metrics.stop()


@dataclass
class SelftestResult:
    """Everything the loopback self-test learned."""

    fetch: FetchResult
    server_metrics: dict
    server_manifest: dict
    #: Trace shards (client and server tracers) when tracing was on.
    client_shard: Optional[dict] = None
    server_shard: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "fetch": self.fetch.to_dict(),
            "server_metrics": self.server_metrics,
            "server_manifest": self.server_manifest,
        }
        if self.client_shard is not None:
            out["client_shard"] = self.client_shard
        if self.server_shard is not None:
            out["server_shard"] = self.server_shard
        return out


async def loopback_selftest(
    *,
    subflows: int = 2,
    loss_rate: float = 0.02,
    loss_seed: Optional[int] = 42,
    metrics_port: Optional[int] = None,
    trace: bool = False,
    **fetch_kwargs,
) -> SelftestResult:
    """Server + fetch in one event loop over loopback, with injected loss.

    The loss shim wraps the *server's* send path (forward/data loss) —
    the hard direction for a sender, exercising fast retransmit, SACK
    hole-filling and RTOs for real.  With ``trace=True`` both sides run
    real tracers (distinct, as in separate processes) and the result
    carries both shards for ``repro obs merge-trace``.  ``fetch_kwargs``
    (``controller``, ``total_bytes``, ``payload_bytes``, ``timeout``) go
    to :func:`fetch`, whose defaults they keep when omitted.
    """
    client_tracer: "obs.Tracer | obs.NullTracer" = \
        obs.Tracer() if trace else obs.NULL_TRACER
    server = TransportServer(
        host="127.0.0.1",
        base_port=0,
        n_ports=subflows,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        metrics_port=metrics_port if metrics_port is not None else 0,
        trace=trace,
    )
    ports = await server.start()
    try:
        result = await fetch("127.0.0.1", ports, tracer=client_tracer,
                             **fetch_kwargs)
        # Wait for the server to see the final ACK and retire the
        # connection: closing energy sample, serve-side spans finished.
        try:
            await asyncio.wait_for(server.wait_connection_complete(), 5.0)
        except asyncio.TimeoutError:  # pragma: no cover - slow CI safety
            pass
        metrics = server.metrics_snapshot()
        manifest = server.manifest_snapshot()
        result.server_metrics = metrics
        return SelftestResult(
            fetch=result, server_metrics=metrics, server_manifest=manifest,
            client_shard=(client_tracer.shard_dict("loopback-fetch")
                          if trace else None),
            server_shard=server.trace_shard("loopback-serve")
            if trace else None)
    finally:
        await server.stop()
