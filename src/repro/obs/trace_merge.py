"""Stitch per-process trace shards into one Perfetto-loadable timeline.

Each traced process exports a **shard** (:meth:`repro.obs.Tracer.
shard_dict`, schema ``repro.obs.trace/1``): its events with
process-local monotonic timestamps plus ``epoch_unix`` — the wall-clock
instant those timestamps are relative to.  :func:`merge_shards` aligns
the shards onto one time axis (the earliest shard's epoch is t=0; every
other shard is shifted by its wall-clock offset from it), gives each
shard its own Perfetto *process* track (synthetic sequential pids — two
shards recorded by the same OS pid, e.g. the loopback self-test's
client and server, still render as distinct tracks), and draws flow
arrows for parent links that cross shards.

**Orphan policy**: a span or instant whose ``parent_span_id`` names a
span that appears in *no* shard is an orphan — its parent was dropped
(ring overflow), never finished, or lives in a shard that wasn't merged.
Orphans are quarantined onto a dedicated ``(orphans)`` process track so
they stay visible without faking parentage, or removed entirely with
``drop_orphans=True``.  Roots (``parent_span_id`` of None) are never
orphans.

The output is standard Chrome ``trace_event`` JSON (object form) — the
only Perfetto document the repo writes; a single shard (``repro figNN
--trace FILE``) merges into one too.  ``repro obs report`` and
https://ui.perfetto.dev load it directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracing import TRACE_SCHEMA

__all__ = ["MergeStats", "load_shard", "merge_shards", "write_merged",
           "write_shard"]


class MergeStats:
    """What one merge did — shards in, events out, orphans found."""

    def __init__(self) -> None:
        self.shards = 0
        self.events = 0
        self.orphans = 0
        self.dropped_events = 0
        self.trace_ids: List[str] = []
        self.processes: List[str] = []


def load_shard(path: "str | Path") -> Dict[str, Any]:
    """Read and validate one shard file (``repro.obs.trace/1``)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: not a trace shard (expected schema {TRACE_SCHEMA!r}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else type(doc)})")
    if not isinstance(doc.get("events"), list):
        raise ValueError(f"{path}: shard has no event list")
    return doc


def write_shard(path: "str | Path", shard: Dict[str, Any]) -> Path:
    """Write one shard document (parents created); returns the path.
    The one shard writer: tracers, the campaign driver and the loopback
    self-test all go through it, and :func:`load_shard` reads it back."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(shard, fh)
    return path


def _track(name: str) -> str:
    return str(name).split(".", 1)[0]


def merge_shards(
    shards: Sequence[Dict[str, Any]],
    *,
    drop_orphans: bool = False,
) -> Tuple[Dict[str, Any], MergeStats]:
    """Merge shard dicts into one Chrome trace; returns ``(doc, stats)``.

    Shards get synthetic pids 1..N in input order; orphaned events land
    on pid N+1 (``(orphans)``) unless ``drop_orphans``.  Clock alignment
    uses each shard's ``epoch_unix``: the earliest epoch is the merged
    t=0 and every event is shifted by its shard's offset from it.
    """
    if not shards:
        raise ValueError("no shards to merge")
    stats = MergeStats()
    stats.shards = len(shards)

    # Pass 1: the union of span ids (orphan detection is cross-shard).
    known_spans: Dict[str, Tuple[int, str]] = {}  # span_id -> (pid, name)
    for idx, shard in enumerate(shards):
        pid = idx + 1
        for ev in shard.get("events", []):
            span_id = ev.get("span_id")
            if span_id:
                known_spans[span_id] = (pid, str(ev.get("name", "")))

    ref_epoch = min(float(s.get("epoch_unix", 0.0)) for s in shards)
    orphan_pid = len(shards) + 1
    events: List[Dict[str, Any]] = []
    meta: List[Dict[str, Any]] = []
    #: span_id -> (pid, tid, ts_us) of the emitted span, for flow arrows.
    span_sites: Dict[str, Tuple[int, int, float]] = {}
    #: (child pid, event) pairs whose parent lives in another shard.
    cross_links: List[Tuple[str, int, int, float]] = []
    seen_orphan_track = False

    for idx, shard in enumerate(shards):
        pid = idx + 1
        name = str(shard.get("process_name") or f"shard-{pid}")
        trace_id = str(shard.get("trace_id", ""))
        if trace_id and trace_id not in stats.trace_ids:
            stats.trace_ids.append(trace_id)
        stats.processes.append(name)
        stats.dropped_events += int(shard.get("dropped", 0))
        offset_us = (float(shard.get("epoch_unix", ref_epoch)) - ref_epoch) * 1e6
        meta.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                     "args": {"name": name}})
        meta.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                     "tid": 0, "args": {"sort_index": pid}})
        tids: Dict[str, int] = {}
        for ev in shard.get("events", []):
            parent = ev.get("parent_span_id")
            orphan = bool(parent) and parent not in known_spans
            if orphan:
                stats.orphans += 1
                if drop_orphans:
                    continue
            track = _track(ev.get("name", "?"))
            tid = 1 if orphan else tids.setdefault(track, len(tids) + 1)
            args = dict(ev.get("args") or {})
            for key in ("span_id", "parent_span_id", "trace_id"):
                if ev.get(key):
                    args[key] = ev[key]
            if orphan:
                args["orphan"] = True
                args["source_process"] = name
            ts_us = round(float(ev.get("ts", 0.0)) * 1e6 + offset_us, 3)
            out: Dict[str, Any] = {
                "name": ev.get("name", "?"),
                "cat": track,
                "pid": orphan_pid if orphan else pid,
                "tid": tid,
                "ts": ts_us,
                "args": args,
            }
            if ev.get("type") == "span":
                out["ph"] = "X"
                out["dur"] = round(float(ev.get("dur", 0.0)) * 1e6, 3)
            else:
                out["ph"] = "i"
                out["s"] = "t"
            events.append(out)
            seen_orphan_track = seen_orphan_track or orphan
            span_id = ev.get("span_id")
            if span_id and not orphan:
                span_sites[span_id] = (pid, tid, ts_us)
            if (parent and not orphan and parent in known_spans
                    and known_spans[parent][0] != pid):
                cross_links.append((parent, pid, tid, ts_us))
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                         "tid": tid, "args": {"name": track}})

    if seen_orphan_track:
        meta.append({"ph": "M", "name": "process_name", "pid": orphan_pid,
                     "tid": 0, "args": {"name": "(orphans)"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": orphan_pid,
                     "tid": 1, "args": {"name": "quarantine"}})

    # Flow arrows for parent links that cross process tracks.  The "s"
    # (start) anchors at the parent span, the "f" (finish) at the child;
    # a parent recorded *after* the merge window (site unknown) is
    # skipped — the args still carry parent_span_id for tooling.
    flow_id = 0
    flows: List[Dict[str, Any]] = []
    for parent, child_pid, child_tid, child_ts in cross_links:
        site = span_sites.get(parent)
        if site is None:
            continue
        flow_id += 1
        p_pid, p_tid, p_ts = site
        flows.append({"ph": "s", "id": flow_id, "name": "parent",
                      "cat": "link", "pid": p_pid, "tid": p_tid,
                      "ts": p_ts})
        flows.append({"ph": "f", "id": flow_id, "name": "parent",
                      "cat": "link", "pid": child_pid, "tid": child_tid,
                      "ts": child_ts, "bp": "e"})

    stats.events = len(events)
    doc = {
        "traceEvents": meta + events + flows,
        "displayTimeUnit": "ms",
        "otherData": {
            "merged_shards": stats.shards,
            "ref_epoch_unix": ref_epoch,
            "trace_ids": stats.trace_ids,
            "orphans": stats.orphans,
        },
    }
    return doc, stats


def write_merged(paths: Sequence["str | Path"], out_path: "str | Path",
                 *, drop_orphans: bool = False) -> MergeStats:
    """Load shard files, merge, write Chrome JSON; returns the stats."""
    shards = [load_shard(p) for p in paths]
    doc, stats = merge_shards(shards, drop_orphans=drop_orphans)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return stats
