"""Metrics registry: counters, gauges, and fixed-bucket histograms.

This is the measurement substrate the paper's argument rests on — the
reproduction's analogue of the RAPL counters and per-subflow time series
of Section III — reduced to three instrument kinds cheap enough to stay
on in production paths:

* :class:`Counter` — a monotonically increasing total (events processed,
  integration steps, joules).
* :class:`Gauge` — a last-value sample (queue depth, convergence
  residual).
* :class:`Histogram` — fixed upper-bound buckets plus count/sum/min/max,
  for distributions (congestion windows, power samples, DTS epsilon).

A :class:`MetricsRegistry` owns instruments by name; ``counter()`` /
``gauge()`` / ``histogram()`` are get-or-create, so independent layers
(engine, MPTCP probes, energy meters) can share one registry without
coordination — counters add up, gauges last-write-win.  ``snapshot()``
returns one JSON-serializable dict, the schema shared by campaign
telemetry, run manifests, and ``python -m repro obs report``.

Hot-path discipline: instruments are plain ``__slots__`` objects whose
update methods do one attribute addition (counters/gauges) or one bisect
(histograms); engines keep local accumulators inside their inner loops
and flush into counters at run() boundaries.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "geometric_buckets", "percentiles_from_counts"]


def geometric_buckets(lo: float, hi: float, factor: float = 2.0) -> Tuple[float, ...]:
    """Ascending bucket upper bounds ``lo, lo*factor, ... >= hi``."""
    if lo <= 0 or hi <= lo or factor <= 1.0:
        raise ValueError(f"need 0 < lo < hi and factor > 1, "
                         f"got lo={lo}, hi={hi}, factor={factor}")
    bounds: List[float] = []
    b = float(lo)
    while b < hi:
        bounds.append(b)
        b *= factor
    bounds.append(b)
    return tuple(bounds)


def percentiles_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    minimum: float,
    maximum: float,
    ps: Sequence[float],
) -> List[float]:
    """Percentile estimates interpolated from fixed bucket bounds.

    Works on a live :class:`Histogram` or on its snapshot/JSONL record
    (which carries ``buckets``/``counts``/``min``/``max`` but not the raw
    samples).  Each requested percentile is located in its bucket by
    cumulative count, then linearly interpolated between the bucket's
    bounds; the first bucket's lower bound and the overflow bucket's
    upper bound are clamped to the observed min/max, so a single-bucket
    histogram degrades to the [min, max] span rather than the arbitrary
    bucket edges.
    """
    bad = [p for p in ps if not 0.0 <= p <= 100.0]
    if bad:
        raise ValueError(f"percentiles must be in [0, 100], got {bad}")
    total = sum(counts)
    if total == 0:
        return [0.0 for _ in ps]
    out: List[float] = []
    for p in ps:
        rank = p / 100.0 * total
        cum = 0
        value = maximum
        for i, c in enumerate(counts):
            if c == 0:
                cum += c
                continue
            lo = minimum if i == 0 else max(float(buckets[i - 1]), minimum)
            hi = maximum if i == len(buckets) else min(float(buckets[i]),
                                                       maximum)
            hi = max(hi, lo)
            if cum + c >= rank:
                frac = (rank - cum) / c if c else 0.0
                value = lo + frac * (hi - lo)
                break
            cum += c
        out.append(value)
    return out


class Counter:
    """Monotonic total. ``inc(n)`` accepts ints or floats (e.g. seconds)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """Last-value instrument.

    Each ``set()`` stamps :attr:`updated_unix` (wall time), so a
    consumer — the live dashboard greying out a dead path's gauges —
    can tell a *stale* last value from a live one.  ``snapshot_value``
    stays a plain number (the cross-layer snapshot schema is shared by
    telemetry and manifests); the timestamp travels in the JSONL dump
    and the ``/series`` document instead.
    """

    __slots__ = ("name", "value", "updated_unix")
    kind = "gauge"

    #: Wall clock used for update stamps; patchable in tests.
    _clock = time.time

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.updated_unix: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        self.updated_unix = Gauge._clock()

    def snapshot_value(self) -> float:
        return self.value


#: Default histogram buckets: 1, 2, 4 ... 4096 (covers cwnds and most
#: small-magnitude distributions; pass explicit buckets otherwise).
DEFAULT_BUCKETS = geometric_buckets(1.0, 4096.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max running aggregates.

    ``buckets`` are ascending upper bounds; one implicit overflow bucket
    catches everything above the last bound. Bucket layout is fixed at
    creation so snapshots from different processes merge trivially.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "minimum",
                 "maximum")
    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} buckets must be ascending "
                             f"and non-empty, got {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }
        if self.count:
            out["min"] = self.minimum
            out["max"] = self.maximum
        return out

    def merge_snapshot_value(self, value: Dict[str, Any]) -> None:
        """Fold another histogram's snapshot into this one.

        Bucket layouts are fixed at creation precisely so this stays a
        per-bucket addition; mismatched layouts raise rather than merge
        nonsense.
        """
        bounds = tuple(float(b) for b in value.get("buckets", ()))
        if bounds != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge snapshot with "
                f"buckets {bounds} into layout {self.buckets}")
        counts = value.get("counts", [])
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name!r}: snapshot has "
                             f"{len(counts)} counts, expected "
                             f"{len(self.counts)}")
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.count += int(value.get("count", 0))
        self.total += float(value.get("sum", 0.0))
        if "min" in value:
            self.minimum = min(self.minimum, float(value["min"]))
        if "max" in value:
            self.maximum = max(self.maximum, float(value["max"]))


class MetricsRegistry:
    """Named instruments with get-or-create access and one-shot snapshots."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    # ------------------------------------------------------------- creation

    def _get_or_create(self, name: str, factory, kind: str):
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif inst.kind != kind:
            raise TypeError(f"instrument {name!r} already registered as "
                            f"{inst.kind}, requested {kind}")
        return inst

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use.

        ``buckets`` only applies at creation; later calls reuse the
        existing layout.
        """
        return self._get_or_create(name, lambda: Histogram(name, buckets),
                                   "histogram")

    def remove(self, name: str) -> bool:
        """Unregister the instrument called ``name``; True when it
        existed. For per-entity instruments whose entity is gone (a
        finished connection's gauges): whoever still holds the object
        can update it, but no snapshot, exposition or recorder sees it,
        and the next get-or-create under the name starts fresh."""
        return self._instruments.pop(name, None) is not None

    # -------------------------------------------------------------- reading

    def get(self, name: str) -> Optional[Any]:
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def instruments(self) -> Iterable[Any]:
        """All instruments, in name order."""
        return (self._instruments[n] for n in self.names())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-serializable dict, keyed by name.

        Counters and gauges appear as plain numbers, histograms as a
        nested dict (count/sum/mean/min/max/buckets/counts).  This is
        the one metrics schema shared by the campaign executor,
        telemetry, and run manifests.
        """
        return {name: inst.snapshot_value()
                for name, inst in sorted(self._instruments.items())}

    def merge_snapshot(self, snapshot: Dict[str, Any],
                       kinds: Optional[Dict[str, str]] = None) -> None:
        """Fold a foreign registry snapshot into this registry.

        The cross-process merge rule: counters **sum**, gauges
        **last-write-win**, histogram counts **add** (layouts must
        match).  This is how campaign worker ``"obs"`` payloads roll up
        into one parent registry.

        A snapshot alone cannot distinguish counters from gauges (both
        are plain numbers), so the kind comes from, in order: an
        already-registered instrument of that name, the optional
        ``kinds`` map, else the default — dicts merge as histograms,
        numbers as counters (the dominant engine instrument kind).
        """
        for name in sorted(snapshot):
            value = snapshot[name]
            inst = self._instruments.get(name)
            if inst is not None:
                kind = inst.kind
            elif kinds is not None and name in kinds:
                kind = kinds[name]
            else:
                kind = "histogram" if isinstance(value, dict) else "counter"
            if kind == "histogram":
                if not isinstance(value, dict):
                    raise TypeError(f"instrument {name!r}: histogram merge "
                                    f"needs a dict, got {type(value).__name__}")
                self.histogram(name, value.get("buckets", DEFAULT_BUCKETS)) \
                    .merge_snapshot_value(value)
            elif kind == "gauge":
                self.gauge(name).set(float(value))
            else:
                self.counter(name).inc(float(value))
