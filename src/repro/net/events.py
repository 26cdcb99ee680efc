"""Event queue and simulation clock for the packet-level simulator."""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, Optional

import repro.obs as obs
from repro.errors import SimulationError
from repro.net.packet import PacketPool
from repro.net.rand import Pcg64

#: Queue depth / dispatch probes fire once per this many events, keeping
#: per-event cost at a decrement-and-test even while tracing is enabled.
_PROBE_EVERY = 1024

#: Heap compaction triggers: rebuild the event heap (dropping cancelled
#: stubs) once at least ``_COMPACT_MIN_STUBS`` stubs are pending *and*
#: they exceed ``_COMPACT_FRACTION`` of the heap.  The floor keeps small
#: heaps whole: their filter+heapify would cost more than the stubs ever
#: cost to drain.
_COMPACT_MIN_STUBS = 512
_COMPACT_FRACTION = 0.5

_INF = float("inf")


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped. This keeps scheduling O(log n) with no heap surgery; the
    simulator counts live cancelled stubs and periodically compacts the
    heap when they dominate it (see :meth:`Simulator.run`).
    """

    __slots__ = ("time", "callback", "args", "cancelled", "sim")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._cancelled_pending += 1


class Simulator:
    """Discrete-event simulation clock with a binary-heap event queue.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator :attr:`rand`: a
        non-negative integer, or ``None`` for OS entropy. All stochastic
        elements of a simulation (random losses, workload arrivals) must
        draw through :attr:`rand` so runs are reproducible.
    metrics:
        Metrics registry to report through; defaults to the ambient obs
        session's registry, or a private one outside a session.
    tracer:
        Span tracer; defaults to the ambient session's (the shared
        no-op tracer outside a session).
    pool_debug:
        Enable the double-release / leak bookkeeping of :attr:`pool`.
    """

    def __init__(self, seed: Optional[int] = None, *,
                 metrics: Optional["obs.MetricsRegistry"] = None,
                 tracer=None,
                 pool_debug: bool = False):
        self.now: float = 0.0
        #: The simulation's one random generator (the stream of
        #: ``numpy.random.default_rng(seed)``; see :mod:`repro.net.rand`).
        self.rand = Pcg64(seed)
        #: Free-list recycler for data/ACK packets: senders acquire every
        #: packet here and the link layer releases it the moment it dies.
        self.pool = PacketPool(debug=pool_debug)
        self._heap: list = []
        self._counter = itertools.count()
        self._cancelled_pending = 0
        self.metrics = metrics if metrics is not None else obs.registry_or_new()
        self.tracer = tracer if tracer is not None else obs.current_tracer()
        self._events_counter = self.metrics.counter("engine.events_processed")
        self._wall_counter = self.metrics.counter("engine.wall_time_s")
        self._queue_gauge = self.metrics.gauge("engine.queue_depth")
        self._queue_hist = self.metrics.histogram(
            "engine.queue_depth_sampled", obs.geometric_buckets(1, 1 << 20))
        self._compactions_counter = self.metrics.counter("engine.heap_compactions")
        self._pool_reuse_counter = self.metrics.counter("packet.pool_reuse")
        self._pool_reuse_flushed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (compat view of the
        ``engine.events_processed`` counter)."""
        return int(self._events_counter.value)

    @property
    def wall_time_s(self) -> float:
        """Wall-clock seconds spent inside run() so far (compat view of
        the ``engine.wall_time_s`` counter)."""
        return float(self._wall_counter.value)

    @property
    def heap_compactions(self) -> int:
        """Number of cancelled-stub heap rebuilds so far."""
        return int(self._compactions_counter.value)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self.now + delay
        handle = EventHandle(when, callback, args, self)
        heapq.heappush(self._heap, (when, next(self._counter), handle, callback, args))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, already at {self.now:.6f}"
            )
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._heap, (time, next(self._counter), handle, callback, args))
        return handle

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        The hot path for link serialization/propagation events, which are
        never cancelled — skipping the handle saves an allocation per
        event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._counter), None, callback, args))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. Events scheduled at
            exactly ``until`` are executed. ``None`` drains the queue.
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SimulationError` when exceeded.

        Cancelled events are skipped when popped; when enough cancelled
        stubs accumulate (see ``_COMPACT_MIN_STUBS`` / ``_COMPACT_FRACTION``)
        the heap is rebuilt without them. Compaction preserves the
        (time, tie-break) order of every live event exactly, so it is
        invisible to the simulation.
        """
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        tracer = self.tracer
        traced = tracer.enabled
        until_f = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        min_stubs = _COMPACT_MIN_STUBS
        fraction = _COMPACT_FRACTION
        probe_left = _PROBE_EVERY
        wall_start = time.perf_counter()
        try:
            with tracer.span("sim.run", until=until, start=self.now):
                while heap:
                    entry = heap[0]
                    when = entry[0]
                    if when > until_f:
                        break
                    pop(heap)
                    handle = entry[2]
                    if handle is not None and handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    self.now = when
                    entry[3](*entry[4])
                    executed += 1
                    probe_left -= 1
                    if not probe_left:
                        probe_left = _PROBE_EVERY
                        self._queue_hist.observe(len(heap))
                        if traced:
                            tracer.instant(
                                "sim.dispatch", sim_now=self.now,
                                queue_depth=len(heap),
                                callback=getattr(entry[3], "__qualname__",
                                                 repr(entry[3])))
                        stubs = self._cancelled_pending
                        if stubs >= min_stubs and stubs > fraction * len(heap):
                            heap = self._compact()
                    if executed >= budget:
                        raise SimulationError(f"exceeded max_events={max_events}")
                if until is not None:
                    self.now = until
        finally:
            self._events_counter.inc(executed)
            self._wall_counter.inc(time.perf_counter() - wall_start)
            self._queue_gauge.set(len(heap))
            reuses = self.pool.reuses
            if reuses > self._pool_reuse_flushed:
                self._pool_reuse_counter.inc(reuses - self._pool_reuse_flushed)
                self._pool_reuse_flushed = reuses

    def _compact(self) -> list:
        """Rebuild the heap without cancelled stubs; returns the new heap.

        Entries keep their original (time, counter) keys, so heapify
        yields exactly the pop order the uncompacted heap would have
        produced for the surviving events.
        """
        heap = [e for e in self._heap if e[2] is None or not e[2].cancelled]
        heapq.heapify(heap)
        self._heap = heap
        self._cancelled_pending = 0
        self._compactions_counter.inc()
        return heap

    def pending(self) -> int:
        """Number of events still queued (including cancelled stubs)."""
        return len(self._heap)


class TickCohorts:
    """Deadline cohorts on a quantized tick grid.

    The batched packet engine (:mod:`repro.net.batch`) schedules delivery
    rounds on integer ticks rather than a continuous clock: every
    deadline is rounded *up* to the scenario's tick quantum, so rounds
    that land on the same tick form a cohort that one masked numpy pass
    can advance together.  This class is that scheduler: a min-heap of
    distinct ticks plus per-tick key lists.  Keys pop sorted, which is
    what the engine's RNG-draw-order contract requires.

    Kept here, beside :class:`Simulator`'s event heap, because it is the
    batch counterpart of the DES scheduling layer — same contract
    (monotone deadlines, stable intra-deadline order), different
    granularity.
    """

    __slots__ = ("_ticks", "_cohorts")

    def __init__(self) -> None:
        self._ticks: list = []
        self._cohorts: dict = {}

    def push(self, tick: int, key) -> None:
        """Schedule ``key`` for ``tick`` (an int on the quantized grid)."""
        bucket = self._cohorts.get(tick)
        if bucket is None:
            self._cohorts[tick] = [key]
            heapq.heappush(self._ticks, tick)
        else:
            bucket.append(key)

    def peek_tick(self) -> Optional[int]:
        """Earliest scheduled tick, or ``None`` when empty."""
        return self._ticks[0] if self._ticks else None

    def pop_cohort(self):
        """Remove and return ``(tick, sorted keys)`` for the earliest tick."""
        tick = heapq.heappop(self._ticks)
        keys = self._cohorts.pop(tick)
        keys.sort()
        return tick, keys

    def __len__(self) -> int:
        return sum(len(v) for v in self._cohorts.values())

    def __bool__(self) -> bool:
        return bool(self._ticks)
