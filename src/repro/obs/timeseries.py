"""Live time-series: ring-buffer samples of registry instruments.

The offline pipeline reconstructs per-path cwnd/rate/energy curves from
traces after a run ends; this module is the *live* counterpart — the
reproduction's analogue of watching the paper's testbed counters scroll
by.  Two pieces:

* :class:`TimeSeries` — a fixed-capacity ring of ``(t, value)`` points.
  Appends are O(1), memory is bounded by construction, and overflow
  silently drops the oldest points (``dropped`` counts them), so a
  recorder can stay attached to a week-long serve without growing.
* :class:`SeriesRecorder` — samples every instrument of a
  :class:`~repro.obs.metrics.MetricsRegistry` on a configurable cadence
  into named rings: counters become **rates** (``<name>.rate``, delta
  over the sampling gap), gauges record their **value** (``<name>``),
  histograms record interpolated **percentiles** (``<name>.p50`` /
  ``.p95`` / ``.p99``).

Snapshots are JSON-serializable (the ``/series`` route body).

A recorder is attached to the ambient :class:`~repro.obs.ObsSession`
via :meth:`repro.obs.ObsSession.attach_series`, so transport servers
and the campaign monitor share one wiring idiom.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles_from_counts,
)

__all__ = ["SERIES_SCHEMA", "SeriesRecorder", "TimeSeries"]

#: Schema tag carried by recorder snapshots (the ``/series`` document).
SERIES_SCHEMA = "repro.obs.series/1"

#: Default ring capacity: at the default 1 s cadence this is ~8.5 minutes
#: of live history per series, a few KB each.
DEFAULT_CAPACITY = 512

#: The percentiles each histogram is sampled as (``<name>.p50`` ...).
_PERCENTILES = (50.0, 95.0, 99.0)
#: (series-name suffix, source kind) of every ring an instrument can be
#: sampled into.
_SAMPLED_AS = (("", "gauge"), (".rate", "counter")) + tuple(
    (f".p{p:g}", "histogram") for p in _PERCENTILES)


class TimeSeries:
    """Fixed-capacity ring buffer of ``(t, value)`` samples."""

    __slots__ = ("name", "capacity", "dropped", "_t", "_v", "_head", "_size")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"series {name!r} needs capacity >= 1, "
                             f"got {capacity}")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        self._t: List[float] = []
        self._v: List[float] = []
        self._head = 0  # index of the oldest point once the ring is full
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, t: float, value: float) -> None:
        """Add one point, evicting the oldest when full."""
        if self._size < self.capacity:
            self._t.append(t)
            self._v.append(value)
            self._size += 1
        else:
            self._t[self._head] = t
            self._v[self._head] = value
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest point, or None when empty."""
        if self._size == 0:
            return None
        i = (self._head + self._size - 1) % self.capacity
        return self._t[i], self._v[i]

    def points(self) -> List[Tuple[float, float]]:
        """All retained points, oldest first."""
        if self._head == 0:
            return list(zip(self._t, self._v))
        order = [(self._head + i) % self.capacity for i in range(self._size)]
        return [(self._t[i], self._v[i]) for i in order]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state: the retained points plus bookkeeping."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "points": [[t, v] for t, v in self.points()],
        }


class SeriesRecorder:
    """Samples a registry's instruments into named time-series rings.

    ``interval`` is the cadence the caller's sampling loop keeps
    (reported as ``interval_s``); :meth:`sample` always records.
    ``clock`` defaults to wall time so points line up across processes
    and on the dashboard's time axis.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.time,
    ):
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.clock = clock
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0
        #: series name -> source instrument kind ("counter" rate,
        #: "gauge" value, "histogram" percentile).
        self._kinds: Dict[str, str] = {}
        self._prev_counters: Dict[str, float] = {}
        self._prev_t: Optional[float] = None

    # -------------------------------------------------------------- sampling

    def _ring(self, name: str, kind: str) -> TimeSeries:
        ring = self.series.get(name)
        if ring is None:
            ring = TimeSeries(name, self.capacity)
            self.series[name] = ring
            self._kinds[name] = kind
        return ring

    def sample(self, now: Optional[float] = None) -> int:
        """Record one sample of every instrument; returns points written."""
        now = self.clock() if now is None else now
        dt = (now - self._prev_t) if self._prev_t is not None else 0.0
        written = 0
        for inst in self.registry.instruments():
            if isinstance(inst, Counter):
                prev = self._prev_counters.get(inst.name)
                self._prev_counters[inst.name] = inst.value
                if prev is None or dt <= 0:
                    continue  # a rate needs two looks at the counter
                self._ring(inst.name + ".rate", "counter").append(
                    now, (inst.value - prev) / dt)
                written += 1
            elif isinstance(inst, Gauge):
                self._ring(inst.name, "gauge").append(now, inst.value)
                written += 1
            elif isinstance(inst, Histogram):
                values = percentiles_from_counts(
                    inst.buckets, inst.counts, inst.minimum, inst.maximum,
                    _PERCENTILES)
                for p, value in zip(_PERCENTILES, values):
                    self._ring(f"{inst.name}.p{p:g}", "histogram").append(
                        now, value)
                    written += 1
        self._prev_t = now
        self.samples_taken += 1
        return written

    def forget(self, name: str) -> int:
        """Drop every ring sampled from the instrument called ``name``
        (a gauge's value, a counter's ``.rate`` and its baseline, a
        histogram's percentiles); returns the rings dropped. The
        counterpart of :meth:`MetricsRegistry.remove`: without it a
        removed instrument's rings outlive it at their last value."""
        dropped = 0
        for suffix, kind in _SAMPLED_AS:
            series = name + suffix
            if self._kinds.get(series) == kind:
                del self.series[series], self._kinds[series]
                dropped += 1
        self._prev_counters.pop(name, None)
        return dropped

    # ------------------------------------------------------------- reporting

    def last_values(self) -> Dict[str, float]:
        """Newest value per series (the SSE delta payload)."""
        out: Dict[str, float] = {}
        for name, ring in self.series.items():
            point = ring.last()
            if point is not None:
                out[name] = point[1]
        return out

    def snapshot(self) -> Dict[str, Any]:
        """The full ``/series`` document: every ring plus source metadata.

        Gauge-backed series carry their source gauge's ``updated_unix``
        so a consumer can grey out state that stopped updating (a dead
        path's cwnd) without comparing point timestamps itself.
        """
        series: Dict[str, Any] = {}
        for name in sorted(self.series):
            entry = self.series[name].snapshot()
            kind = self._kinds[name]
            entry["kind"] = kind
            if kind == "gauge":
                inst = self.registry.get(name)
                if isinstance(inst, Gauge):
                    entry["updated_unix"] = inst.updated_unix
            series[name] = entry
        return {
            "schema": SERIES_SCHEMA,
            "interval_s": self.interval,
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "series": series,
        }
