"""Lightweight counters, timers, and a structured JSONL run log.

One :class:`CampaignTelemetry` instance accompanies one campaign run.
It keeps in-memory counters (runs started/completed/failed, cache hits)
and value observations (wall seconds per run, engine throughput), and —
when given a log path — appends one JSON object per event to a JSONL
file, so a campaign leaves an audit trail that survives the process::

    {"ts": ..., "event": "run_completed", "spec_hash": "ab12...",
     "topology": "bcube", "n_subflows": 4, "seed": 1, "cached": false,
     "wall_s": 1.93, "steps_per_s": 3891.2}

Engine throughput comes from the obs metrics registry: worker payloads
carry a registry snapshot under ``"obs"`` (see
:func:`repro.campaign.executor.execute_run`) read by
:func:`throughput_from_snapshot`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict


def throughput_from_snapshot(snapshot: Dict[str, Any],
                             wall_s: float) -> Dict[str, float]:
    """Throughput stats from a metrics-registry snapshot.

    The snapshot is the ``"obs"`` payload key produced by
    :meth:`repro.obs.MetricsRegistry.snapshot`; the counter names are
    the engines' canonical instruments (``engine.events_processed`` for
    the packet simulator, ``engine.steps_taken`` for the fluid engine).
    """
    out: Dict[str, float] = {}
    if wall_s <= 0:
        return out
    events = snapshot.get("engine.events_processed")
    if events is not None:
        out["events_per_s"] = float(events) / wall_s
    steps = snapshot.get("engine.steps_taken")
    if steps is not None:
        out["steps_per_s"] = float(steps) / wall_s
    return out


@dataclass
class _Observation:
    """Running aggregate of one observed value series."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def as_dict(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {"count": self.count, "total": self.total,
                "mean": self.total / self.count,
                "min": self.minimum, "max": self.maximum}


class CampaignTelemetry:
    """Counters + timers + an append-only JSONL event log."""

    def __init__(self, log_path: "str | Path | None" = None):
        self.log_path = Path(log_path) if log_path is not None else None
        self.counters: Dict[str, int] = {}
        self.observations: Dict[str, _Observation] = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------- primitives

    def incr(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a named value (count/sum/min/max kept)."""
        self.observations.setdefault(name, _Observation()).add(value)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line to the JSONL log (if configured)."""
        record = {"ts": round(time.time(), 6), "event": event, **fields}
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    # ---------------------------------------------------------- run lifecycle

    def campaign_started(self, name: str, n_runs: int, jobs: int,
                         trace_id: "str | None" = None) -> None:
        self._t0 = time.perf_counter()
        fields: Dict[str, Any] = dict(campaign=name, n_runs=n_runs, jobs=jobs)
        if trace_id:
            fields["trace_id"] = trace_id
        self.emit("campaign_started", **fields)

    def run_queued(self, spec) -> None:
        self.incr("runs_queued")
        self.emit("run_queued", spec_hash=spec.content_hash(),
                  topology=spec.topology, algorithm=spec.algorithm,
                  n_subflows=spec.n_subflows, seed=spec.seed)

    def run_started(self, spec) -> None:
        self.incr("runs_started")
        self.emit("run_started", spec_hash=spec.content_hash(),
                  topology=spec.topology, algorithm=spec.algorithm,
                  n_subflows=spec.n_subflows, seed=spec.seed)

    def progress(self, done: int, total: int, *, failed: int = 0,
                 cache_hits: int = 0) -> Dict[str, Any]:
        """Emit one streaming progress event (with a naive rate ETA).

        ``eta_s`` extrapolates the observed completion rate over the
        remaining runs; None until at least one run has finished (or
        once everything has).
        """
        elapsed = time.perf_counter() - self._t0
        eta = None
        if 0 < done < total and elapsed > 0:
            eta = elapsed * (total - done) / done
        return self.emit(
            "progress", done=done, total=total, failed=failed,
            cache_hits=cache_hits, elapsed_s=round(elapsed, 6),
            eta_s=round(eta, 6) if eta is not None else None)

    def run_completed(self, spec, payload: Dict[str, Any], wall_s: float,
                      *, cached: bool, attempts: int = 1) -> None:
        self.incr("runs_completed")
        if cached:
            self.incr("cache_hits")
        else:
            self.observe("run_wall_s", wall_s)
        metrics = payload.get("metrics", {}) if isinstance(payload, dict) else {}
        fields: Dict[str, Any] = {
            "spec_hash": spec.content_hash(),
            "topology": spec.topology,
            "algorithm": spec.algorithm,
            "n_subflows": spec.n_subflows,
            "seed": spec.seed,
            "cached": cached,
            "attempts": attempts,
            "wall_s": round(wall_s, 6),
        }
        for key in ("energy_per_gb", "aggregate_goodput_bps"):
            if key in metrics:
                fields[key] = metrics[key]
        trace = payload.get("trace") if isinstance(payload, dict) else None
        if isinstance(trace, dict):
            fields["trace_events"] = len(trace.get("events", []))
        snapshot = payload.get("obs", {}) if isinstance(payload, dict) else {}
        throughput = throughput_from_snapshot(snapshot, wall_s)
        for key, value in throughput.items():
            self.observe(key, value)
            fields[key] = round(value, 3)
        self.emit("run_completed", **fields)

    def run_failed(self, spec, error: str, wall_s: float, attempts: int) -> None:
        self.incr("runs_failed")
        self.emit("run_failed", spec_hash=spec.content_hash(),
                  topology=spec.topology, n_subflows=spec.n_subflows,
                  seed=spec.seed, error=error, attempts=attempts,
                  wall_s=round(wall_s, 6))

    def campaign_finished(self, name: str) -> Dict[str, Any]:
        """Emit and return the summary record (counters + aggregates)."""
        wall = time.perf_counter() - self._t0
        summary = self.summary()
        return self.emit("campaign_finished", campaign=name,
                         wall_s=round(wall, 6), **summary)

    # ------------------------------------------------------------- reporting

    def summary(self) -> Dict[str, Any]:
        """Counters plus aggregated observations, as one flat-ish dict."""
        out: Dict[str, Any] = dict(self.counters)
        for name, observation in self.observations.items():
            out[name + "_stats"] = observation.as_dict()
        return out
