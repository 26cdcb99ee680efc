"""Span tracer: nested spans + instant events, exported as trace shards.

A :class:`Tracer` records two event shapes:

* **spans** — ``with tracer.span("fluid.run", steps=1000): ...`` records
  a named interval with wall-clock start/duration, nesting depth, and
  free-form args;
* **instants** — ``tracer.instant("mptcp.loss", subflow=1)`` records a
  point event.

Every tracer carries a **trace identity**: a 32-hex ``trace_id`` shared
by all its events, a 16-hex ``span_id`` per span, and a
``parent_span_id`` linking each span (or instant) to the span it ran
under.  Identity crosses process boundaries as a compact *traceparent*
string (:func:`format_traceparent` / :func:`parse_traceparent`, the
W3C ``00-<trace_id>-<span_id>-01`` shape): the transport client puts
``current_traceparent()`` into its HELLO, the server parents its
connection spans under it, and campaign workers return their spans as a
shard.

Span nesting is **task-local**: the active-span stack lives in a
:class:`~contextvars.ContextVar`, so concurrent asyncio tasks sharing
one ambient tracer each see their own depth and parentage — spans
started in sibling tasks cannot corrupt each other's nesting.

A tracer serializes one way: as a **shard** (:meth:`Tracer.shard_dict`
/ :meth:`Tracer.export_shard`, schema ``repro.obs.trace/1``), the same
document on every command that takes ``--trace FILE``.  Perfetto /
``chrome://tracing`` JSON is made from shards by ``repro obs
merge-trace`` (:func:`repro.obs.trace_merge.merge_shards`), which gives
each event's name prefix before the first dot its own track — ``sim.run``
and ``sim.dispatch`` share the ``sim`` track — so one traced run reads
as parallel timelines of the event engine, the fluid integrator, the
MPTCP probes, and the energy meter.

The disabled path matters more than the enabled one: probe points in
per-event/per-ACK code run unconditionally, so :data:`NULL_TRACER`
(shared singleton) returns one preallocated no-op span and allocates
nothing.  Hot layers additionally guard arg construction with
``if tracer.enabled:`` so a disabled tracer costs one attribute test.
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "MONOTONIC_CLOCK",
    "NULL_TRACER",
    "NullTracer",
    "SpanHandle",
    "TRACE_SCHEMA",
    "Tracer",
    "format_traceparent",
    "new_trace_id",
    "parse_traceparent",
]

#: The monotonic seconds source shared by spans and the bench/profiling
#: layer, so their timestamps are directly comparable.
MONOTONIC_CLOCK = time.perf_counter

#: Schema tag on exported trace shards (one process's slice of a trace).
TRACE_SCHEMA = "repro.obs.trace/1"

#: Ceiling on the events one tracer retains; extra events are dropped
#: (counted in :attr:`Tracer.dropped`) so a runaway trace cannot exhaust
#: memory.
MAX_EVENTS = 1_000_000

#: The active-span stack of the current task/context.  One module-level
#: ContextVar (per-instance ContextVars leak); entries are live _Span
#: objects, possibly from different tracers, innermost last.
_SPAN_STACK: "ContextVar[Tuple[_Span, ...]]" = ContextVar(
    "repro_obs_span_stack", default=())

_HEX = set("0123456789abcdef")


def new_trace_id() -> str:
    """A fresh 32-hex (128-bit) trace id."""
    return os.urandom(16).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """The compact wire form: ``00-<32 hex>-<16 hex>-01``."""
    return f"00-{trace_id}-{span_id}-01"


def _is_hex(text: str, length: int) -> bool:
    return len(text) == length and all(c in _HEX for c in text)


def parse_traceparent(text: Any) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a traceparent, or None if invalid.

    Strict on shape (version/flags must be 2 lowercase hex, ids all-zero
    forbidden) but never raises — wire input is hostile by default.
    """
    if not isinstance(text, str):
        return None
    parts = text.split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if not (_is_hex(version, 2) and _is_hex(trace_id, 32)
            and _is_hex(span_id, 16) and _is_hex(flags, 2)):
        return None
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return trace_id, span_id


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars (and anything else odd) to JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class _Span:
    """Context manager recording one interval on exit.

    Entering pushes the span onto the task-local stack (depth and
    parentage come from the stack, so interleaved asyncio tasks nest
    independently); exiting pops it and records the interval.
    """

    __slots__ = ("_tracer", "name", "args", "t0", "depth",
                 "span_id", "parent_span_id", "trace_id", "_token")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self.t0 = 0.0
        self.depth = 0
        self.span_id = ""
        self.parent_span_id: Optional[str] = None
        self.trace_id = tracer.trace_id
        self._token = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = _SPAN_STACK.get()
        depth = 0
        parent: Optional[str] = None
        for entry in reversed(stack):
            if entry._tracer is tracer:
                if parent is None:
                    parent = entry.span_id
                depth += 1
        if parent is None:
            parent = tracer._remote_parent
        self.depth = depth
        self.parent_span_id = parent
        self.span_id = tracer._next_span_id()
        self._token = _SPAN_STACK.set(stack + (self,))
        self.t0 = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        if self._token is not None:
            _SPAN_STACK.reset(self._token)
            self._token = None
        tracer._record({
            "type": "span",
            "name": self.name,
            "ts": self.t0 - tracer._epoch,
            "dur": end - self.t0,
            "depth": self.depth,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "trace_id": self.trace_id,
            "args": self.args,
        })
        return False


class SpanHandle:
    """A detached span for callback-driven lifecycles.

    ``tracer.start_span(...)`` opens it, ``finish()`` records it; it
    never touches the task-local stack, so a span whose start and end
    live in different asyncio callbacks (a served connection, say) gets
    explicit parentage instead of ambient nesting.  ``finish()`` is
    idempotent; :meth:`instant` records a point event parented here.
    """

    __slots__ = ("_tracer", "name", "args", "t0", "depth",
                 "span_id", "parent_span_id", "trace_id", "_done")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any],
                 span_id: str, parent_span_id: Optional[str],
                 trace_id: str, depth: int):
        self._tracer = tracer
        self.name = name
        self.args = args
        self.t0 = tracer._clock()
        self.depth = depth
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.trace_id = trace_id
        self._done = False

    @property
    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id)

    def instant(self, name: str, **args: Any) -> None:
        """A point event parented under this span."""
        tracer = self._tracer
        tracer._record({
            "type": "instant",
            "name": name,
            "ts": tracer._clock() - tracer._epoch,
            "depth": self.depth + 1,
            "parent_span_id": self.span_id,
            "trace_id": self.trace_id,
            "args": args,
        })

    def finish(self, **args: Any) -> None:
        """Record the span (once); extra ``args`` merge over the open ones."""
        if self._done:
            return
        self._done = True
        tracer = self._tracer
        end = tracer._clock()
        if args:
            self.args = {**self.args, **args}
        tracer._record({
            "type": "span",
            "name": self.name,
            "ts": self.t0 - tracer._epoch,
            "dur": end - self.t0,
            "depth": self.depth,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "trace_id": self.trace_id,
            "args": self.args,
        })


class Tracer:
    """Collects spans and instants in memory until exported.

    Parameters
    ----------
    clock:
        Monotonic seconds source; injectable for tests.
    parent:
        A traceparent string from a remote caller: the tracer joins that
        trace (inherits its trace id) and parents its root spans under
        the remote span.  Invalid strings are ignored (fresh trace).
    """

    enabled = True

    def __init__(self, *, clock=MONOTONIC_CLOCK, parent: Optional[str] = None):
        self._clock = clock
        self._epoch = clock()
        #: Wall-clock instant of the epoch — the cross-process alignment
        #: anchor carried by shards (event ts are epoch-relative).
        self.epoch_unix = time.time()
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0
        self._remote_parent: Optional[str] = None
        parsed = parse_traceparent(parent) if parent is not None else None
        if parsed is not None:
            self.trace_id, self._remote_parent = parsed
        else:
            self.trace_id = new_trace_id()
        # Span ids are a per-tracer random prefix + counter: unique across
        # processes with high probability, far cheaper than fresh urandom
        # per span (the <5% transport-overhead budget).
        self._span_prefix = os.urandom(4).hex()
        self._span_counter = itertools.count(1)

    def _next_span_id(self) -> str:
        return self._span_prefix + format(
            next(self._span_counter) & 0xFFFFFFFF, "08x")

    # ------------------------------------------------------------ recording

    def span(self, name: str, **args: Any) -> _Span:
        """A context manager timing the ``with`` body as span ``name``."""
        return _Span(self, name, args)

    def start_span(self, name: str,
                   parent: "Optional[str | SpanHandle | _Span]" = None,
                   **args: Any) -> SpanHandle:
        """Open a detached span (recorded by ``handle.finish()``).

        ``parent`` may be a traceparent string (a remote caller — an
        invalid one yields a root span of this tracer's trace), another
        handle or active span (local nesting), or None (root).
        """
        trace_id = self.trace_id
        parent_span_id: Optional[str] = None
        depth = 0
        if isinstance(parent, (SpanHandle, _Span)):
            parent_span_id = parent.span_id
            trace_id = parent.trace_id
            depth = parent.depth + 1
        elif parent is not None:
            parsed = parse_traceparent(parent)
            if parsed is not None:
                trace_id, parent_span_id = parsed
        return SpanHandle(self, name, args, self._next_span_id(),
                          parent_span_id, trace_id, depth)

    def instant(self, name: str, **args: Any) -> None:
        """Record a point event (parented under the active span, if any)."""
        depth = 0
        parent: Optional[str] = None
        trace_id = self.trace_id
        for entry in reversed(_SPAN_STACK.get()):
            if entry._tracer is self:
                if parent is None:
                    parent = entry.span_id
                    trace_id = entry.trace_id
                depth += 1
        if parent is None:
            parent = self._remote_parent
        self._record({
            "type": "instant",
            "name": name,
            "ts": self._clock() - self._epoch,
            "depth": depth,
            "parent_span_id": parent,
            "trace_id": trace_id,
            "args": args,
        })

    def current_traceparent(self) -> Optional[str]:
        """The traceparent of this task's innermost active span of this
        tracer — what a caller hands to a remote peer — or None when no
        span is active."""
        for entry in reversed(_SPAN_STACK.get()):
            if entry._tracer is self:
                return format_traceparent(entry.trace_id, entry.span_id)
        return None

    def _record(self, record: Dict[str, Any]) -> None:
        if len(self.records) >= MAX_EVENTS:
            self.dropped += 1
            return
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------ exporting

    def shard_dict(self, process_name: str = "") -> Dict[str, Any]:
        """This tracer's events as one mergeable trace **shard**.

        The shard carries everything ``repro obs merge-trace`` needs to
        stitch shards from different processes into one timeline: the
        trace id, the recording process's pid and display name, and
        ``epoch_unix`` — the wall-clock instant event timestamps are
        relative to, used for cross-host clock-offset alignment.
        """
        events = []
        for r in self.records:
            out = dict(r)
            out["args"] = {k: _jsonable(v) for k, v in r["args"].items()}
            out["ts"] = round(r["ts"], 9)
            if "dur" in out:
                out["dur"] = round(out["dur"], 9)
            events.append(out)
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "process_name": process_name or f"pid-{os.getpid()}",
            "epoch_unix": self.epoch_unix,
            "dropped": self.dropped,
            "events": events,
        }

    def export_shard(self, path: "str | Path",
                     process_name: str = "") -> int:
        """Write :meth:`shard_dict` to ``path``; returns the event count."""
        from repro.obs.trace_merge import write_shard

        write_shard(path, self.shard_dict(process_name))
        return len(self.records)


class _NullSpan:
    """Shared, allocation-free no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullHandle:
    """Shared no-op detached span handle."""

    __slots__ = ()

    span_id = ""
    parent_span_id = None
    trace_id = ""
    depth = 0
    traceparent = ""

    def instant(self, name: str, **args: Any) -> None:
        return None

    def finish(self, **args: Any) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span()`` returns one shared span object and ``instant()`` returns
    immediately, so instrumentation left on in hot loops costs an
    attribute check and a call — nothing is allocated or retained
    (callers must avoid building kwargs on hot paths; guard with
    ``if tracer.enabled:``).
    """

    enabled = False
    records: tuple = ()
    dropped = 0
    trace_id = ""

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def start_span(self, name: str, parent: Any = None,
                   **args: Any) -> _NullHandle:
        return _NULL_HANDLE

    def instant(self, name: str, **args: Any) -> None:
        return None

    def current_traceparent(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: Process-wide disabled tracer; the default everywhere tracing is off.
NULL_TRACER = NullTracer()
