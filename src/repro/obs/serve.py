"""``python -m repro obs serve`` — tail a campaign telemetry JSONL live.

A campaign appends structured events (``run_queued`` / ``run_started`` /
``run_completed`` / ``run_failed`` / ``progress``) to its telemetry log
while it runs; this module turns that file into the same live surface
the transport server exposes: a :class:`TelemetryMonitor` follows the
log with a :class:`~repro.obs.tail.JsonlTailer`, translates each record
into registry instruments (counters for run lifecycle, gauges for the
streaming progress/ETA) and flight events, and an HTTP server mounts
the transport server's own route table
(:func:`repro.obs.dashboard.live_routes`: ``/metrics.prom``,
``/series``, ``/events``, ``/dashboard``, ``/stream``).

Kept out of :mod:`repro.obs`'s ``__init__`` on purpose: this module
imports :mod:`repro.transport.aio`, which (via the server) imports
``repro.obs`` — importing it eagerly would cycle.  The CLI imports it
lazily.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Dict

import repro.obs as obs
from repro.obs.dashboard import live_routes
from repro.obs.tail import JsonlTailer
from repro.transport.aio import MetricsHttpServer

__all__ = ["ObsServeHandle", "TelemetryMonitor", "start_serve"]

#: Campaign counter events -> registry counter names.
_COUNTER_EVENTS = {
    "run_queued": "campaign.runs_queued",
    "run_started": "campaign.runs_started",
    "run_failed": "campaign.runs_failed",
}


class TelemetryMonitor:
    """Follows one campaign telemetry JSONL into live instruments.

    Every :meth:`poll` drains the tailer, folds each record into the
    monitor's own :class:`~repro.obs.MetricsRegistry` (counters for run
    lifecycle, gauges for streaming progress — ``campaign.done`` /
    ``campaign.total`` / ``campaign.eta_s``), appends one flight event
    per record, and takes one series sample, so the dashboard charts
    campaign throughput exactly like transport cwnd.
    """

    def __init__(self, path: "str | Path", *, interval: float = 1.0):
        self.path = Path(path)
        self.tailer = JsonlTailer(self.path)
        self.session = obs.ObsSession(label=f"obs-serve:{self.path.name}")
        self.registry = self.session.registry
        self.recorder = self.session.attach_series(interval=interval)
        self.flight = self.session.attach_flight()
        self.records_seen = 0
        self._c_completed = self.registry.counter("campaign.runs_completed")
        self._c_cache_hits = self.registry.counter("campaign.cache_hits")
        self._counters = {event: self.registry.counter(name)
                          for event, name in _COUNTER_EVENTS.items()}
        self._g_done = self.registry.gauge("campaign.done")
        self._g_total = self.registry.gauge("campaign.total")
        self._g_eta = self.registry.gauge("campaign.eta_s")

    def poll(self) -> int:
        """Ingest newly appended records; returns how many arrived."""
        records = self.tailer.poll()
        for record in records:
            self._ingest(record)
        self.records_seen += len(records)
        self.recorder.sample()
        return len(records)

    def _ingest(self, record: Dict[str, Any]) -> None:
        event = str(record.get("event", "unknown"))
        counter = self._counters.get(event)
        if counter is not None:
            counter.inc()
        elif event == "run_completed":
            self._c_completed.inc()
            if record.get("cached"):
                self._c_cache_hits.inc()
        elif event == "progress":
            self._g_done.set(float(record.get("done", 0)))
            self._g_total.set(float(record.get("total", 0)))
            eta = record.get("eta_s")
            if eta is not None:
                self._g_eta.set(float(eta))
        fields = {k: v for k, v in record.items() if k != "event"}
        fields["src_ts"] = fields.pop("ts", None)
        self.flight.record(event, **fields)

    def status(self) -> Dict[str, Any]:
        """The ``/metrics`` document for a monitor-backed server."""
        return {
            "source": str(self.path),
            "records_seen": self.records_seen,
            "bad_lines": self.tailer.bad_lines,
            "offset": self.tailer.offset,
            "registry": self.registry.snapshot(),
        }


class ObsServeHandle:
    """A running ``obs serve``: the monitor, its HTTP server, the poller."""

    def __init__(self, monitor: TelemetryMonitor, http: MetricsHttpServer,
                 task: "asyncio.Task[None]"):
        self.monitor = monitor
        self.http = http
        self._task = task

    @property
    def port(self) -> int:
        return self.http.port

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        await self.http.stop()


async def start_serve(path: "str | Path", *, host: str = "127.0.0.1",
                      port: int = 0,
                      interval: float = 1.0) -> ObsServeHandle:
    """Start tailing ``path`` and serving the live routes; returns a
    handle whose ``port`` is bound and whose ``stop()`` tears down."""
    monitor = TelemetryMonitor(path, interval=interval)
    http = MetricsHttpServer(
        {
            "/metrics": monitor.status,
            "/healthz": lambda: {"status": "ok", "source": str(monitor.path)},
            **live_routes(monitor.registry, monitor.recorder, monitor.flight,
                          title=f"repro campaign - {monitor.path.name}",
                          interval=interval),
        },
        host=host, port=port)
    await http.start()

    async def poll_loop() -> None:
        while True:
            monitor.poll()
            await asyncio.sleep(interval)

    task = asyncio.ensure_future(poll_loop())
    return ObsServeHandle(monitor, http, task)


async def serve_forever(path: "str | Path", *, host: str, port: int,
                        interval: float) -> None:
    """The CLI driver: serve until cancelled."""
    handle = await start_serve(path, host=host, port=port, interval=interval)
    print(f"tailing {path}")
    print(f"dashboard: http://{host}:{handle.port}/dashboard")
    print(f"prometheus: http://{host}:{handle.port}/metrics.prom")
    try:
        while True:  # pragma: no cover - interactive path
            await asyncio.sleep(3600)
    finally:
        await handle.stop()
