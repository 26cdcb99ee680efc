"""`repro.obs` — unified metrics, span tracing, and run provenance.

One observability layer for both engines and everything above them:

* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry`; the schema campaign telemetry and manifests
  consume.
* :mod:`repro.obs.tracing` — nested spans + instant events, exported as
  a trace shard (``repro.obs.trace/1``; ``--trace FILE`` on every
  command), with an allocation-free disabled path.  Perfetto JSON comes
  from merging shards (:mod:`repro.obs.trace_merge`, ``obs
  merge-trace``).
* :mod:`repro.obs.manifest` — per-run provenance (spec hash, seed, git
  SHA, toolchain versions) and the one written copy of the final
  metrics snapshot.
* :mod:`repro.obs.timeseries` / :mod:`repro.obs.flight` — the live
  series and flight recorders a session attaches.
* :mod:`repro.obs.report` — ``python -m repro obs report`` rendering.

Only ``metrics`` and ``tracing`` load with the package, because every
engine probe reads them; the recorders and the manifest load on first
use (DESIGN.md §8).

The glue is the **ambient session**: probe points deep in the engines
(:class:`repro.net.events.Simulator`, the fluid integrator, MPTCP
connections, energy meters) pick up the active session's registry and
tracer at construction time, so a caller instruments a whole run without
threading handles through every layer::

    import repro.obs as obs

    with obs.session(trace=True) as s:
        ...build network, run experiment...
    s.tracer.export_shard("run.shard.json")
    s.manifest().write("run.manifest.json")   # carries registry.snapshot()

With no session active, engines fall back to a private registry (their
compat counters keep working) and the shared :data:`NULL_TRACER`.
Worker processes start with no session, so campaign runs get isolated
per-run registries for free.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    geometric_buckets,
)
from repro.obs.tracing import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    SpanHandle,
    Tracer,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)

if TYPE_CHECKING:
    from repro.obs.flight import FlightEvent, FlightRecorder
    from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest, git_sha
    from repro.obs.timeseries import SeriesRecorder, TimeSeries

# Every engine probe reads the registry and the tracer; the recorders and
# the manifest resolve on first access (PEP 562), so a run that attaches
# none of them does not load them (or ``subprocess`` and ``platform``).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.flight": ("FlightEvent", "FlightRecorder"),
    "repro.obs.manifest": ("MANIFEST_SCHEMA", "RunManifest", "git_sha"),
    "repro.obs.timeseries": ("SeriesRecorder", "TimeSeries"),
})

__all__ = [
    "MANIFEST_SCHEMA",
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsSession",
    "RunManifest",
    "SeriesRecorder",
    "SpanHandle",
    "TRACE_SCHEMA",
    "TimeSeries",
    "Tracer",
    "active_session",
    "annotate",
    "current_tracer",
    "format_traceparent",
    "geometric_buckets",
    "git_sha",
    "new_trace_id",
    "parse_traceparent",
    "record_event",
    "registry_or_new",
    "session",
]


class ObsSession:
    """One observed run: a registry, a tracer, and run annotations."""

    def __init__(self, *, trace: bool = False, label: str = ""):
        self.label = label
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if trace else NULL_TRACER
        self.annotations: Dict[str, Any] = {}
        #: Live-telemetry attachments; None until attached (see
        #: :meth:`attach_series` / :meth:`attach_flight`).
        self.series: Optional[SeriesRecorder] = None
        self.flight: Optional[FlightRecorder] = None

    def attach_series(self, **kwargs: Any) -> SeriesRecorder:
        """Get-or-create this session's series recorder.

        The first call builds one over this session's registry with
        ``kwargs`` forwarded to :class:`SeriesRecorder`; an
        already-attached recorder is returned as-is so layers can share
        one without coordination.
        """
        if self.series is None:
            from repro.obs.timeseries import SeriesRecorder

            self.series = SeriesRecorder(self.registry, **kwargs)
        return self.series

    def attach_flight(self, **kwargs: Any) -> FlightRecorder:
        """Get-or-create this session's flight recorder (``kwargs`` go
        to :class:`FlightRecorder` on the first call)."""
        if self.flight is None:
            from repro.obs.flight import FlightRecorder

            self.flight = FlightRecorder(**kwargs)
        return self.flight

    def annotate(self, **fields: Any) -> None:
        """Attach free-form provenance (seed, duration, ...) to the run."""
        self.annotations.update(fields)

    def manifest(self, *, label: Optional[str] = None,
                 spec_hash: Optional[str] = None) -> RunManifest:
        """A :class:`RunManifest` of this session's final state."""
        from repro.obs.manifest import RunManifest

        return RunManifest.capture(
            label=self.label if label is None else label,
            spec_hash=spec_hash,
            seed=self.annotations.get("seed"),
            metrics=self.registry.snapshot(),
            annotations=dict(self.annotations),
        )


#: The ambient session lives in a :class:`~contextvars.ContextVar`, not a
#: module global, so concurrent asyncio tasks (one per transport
#: connection) each get an isolated session: a task that starts a session
#: never leaks it into sibling tasks, and sessions started in different
#: tasks cannot collide. Synchronous code sees the exact old semantics —
#: in a single context the variable behaves like a global.
_active: "ContextVar[Optional[ObsSession]]" = ContextVar(
    "repro_obs_active_session", default=None)


@contextmanager
def session(**kwargs: Any) -> Iterator[ObsSession]:
    """``with obs.session(trace=True) as s:`` — scoped ambient session."""
    if _active.get() is not None:
        raise RuntimeError("an obs session is already active")
    s = ObsSession(**kwargs)
    token = _active.set(s)
    try:
        yield s
    finally:
        _active.reset(token)


def active_session() -> Optional[ObsSession]:
    """The ambient session of the current context, or None."""
    return _active.get()


def current_tracer() -> "Tracer | NullTracer":
    """The ambient session's tracer, or the shared null tracer."""
    s = _active.get()
    return s.tracer if s is not None else NULL_TRACER


def registry_or_new() -> MetricsRegistry:
    """The ambient registry, or a fresh private one.

    Engines call this at construction: under a session all layers share
    one registry; outside one, each engine gets an isolated registry
    backing its compatibility counters.
    """
    s = _active.get()
    return s.registry if s is not None else MetricsRegistry()


def annotate(**fields: Any) -> None:
    """Annotate the ambient session; silently a no-op without one, so
    experiments can annotate unconditionally."""
    s = _active.get()
    if s is not None:
        s.annotations.update(fields)


def record_event(kind: str, **fields: Any) -> Optional[FlightEvent]:
    """Record a flight event on the ambient session's recorder.

    A no-op (returning None) when no session is active or the session
    has no flight recorder attached, so probe points deep in engines
    and executors can record unconditionally at the cost of two
    attribute reads.
    """
    s = _active.get()
    if s is not None and s.flight is not None:
        return s.flight.record(kind, **fields)
    return None
