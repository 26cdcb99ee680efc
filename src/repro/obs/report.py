"""Summarize observability artifacts as terminal tables.

``python -m repro obs report FILE...`` accepts any artifact this
subsystem (or campaign telemetry) writes and renders a human summary:

* trace shards (``--trace FILE`` output on every command) and merged
  Perfetto JSON (``obs merge-trace`` output) — per-span-name
  count/total/mean duration plus instant-event counts;
* run manifests — provenance fields plus the final metrics snapshot;
* campaign telemetry JSONL logs — event counts and wall-time stats;
* flight-recorder dumps and saved ``/events`` documents;
* series snapshots and ``obs analyze`` diagnoses;
* ``BENCH_*`` benchmark results — per-case timing stats, the metrics
  snapshot of each case, and hot frames.

A registry snapshot renders as one table wherever it appears (manifest
or bench case): count, value/mean, min, max and histogram p50/p95/p99.

Files are read by :func:`repro.obs.analyze.load_input`, the loader
``obs analyze`` uses too: the kind is sniffed from content, never from
the extension.  Empty files report kind ``"empty"`` (the CLI warns and
moves on); JSONL inputs keep their parseable records, a malformed
interior line becomes a warning, and a torn trailing line (a writer
killed mid-dump, or a live log caught mid-append) is skipped silently.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.obs.analyze import load_input
from repro.obs.metrics import percentiles_from_counts

__all__ = ["render_file"]


# ------------------------------------------------------------------ renderers

def _span_rows(spans: List[Dict[str, Any]],
               instants: List[Dict[str, Any]]) -> str:
    from repro.analysis.report import format_table

    by_name: Dict[str, List[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(float(s.get("dur", 0.0)))
    inst_by_name: Dict[str, int] = {}
    for i in instants:
        inst_by_name[i["name"]] = inst_by_name.get(i["name"], 0) + 1
    rows: List[List[Any]] = []
    for name in sorted(by_name):
        durs = by_name[name]
        rows.append(["span", name, len(durs), sum(durs) * 1e3,
                     sum(durs) / len(durs) * 1e3, max(durs) * 1e3])
    for name in sorted(inst_by_name):
        rows.append(["instant", name, inst_by_name[name], "", "", ""])
    return format_table(
        ["kind", "name", "count", "total ms", "mean ms", "max ms"], rows)


def _render_chrome(doc: Dict[str, Any]) -> str:
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") != "M"]
    spans = [{"name": e["name"], "dur": e.get("dur", 0.0) / 1e6}
             for e in events if e.get("ph") == "X"]
    instants = [{"name": e["name"]} for e in events if e.get("ph") == "i"]
    head = f"chrome trace: {len(spans)} spans, {len(instants)} instants"
    return head + "\n" + _span_rows(spans, instants)


def _histogram_percentiles(record: Dict[str, Any]) -> List[Any]:
    """p50/p95/p99 cells for a histogram snapshot value."""
    count = record.get("count", 0)
    if not count or "buckets" not in record or "counts" not in record:
        return ["", "", ""]
    return percentiles_from_counts(
        record["buckets"], record["counts"],
        record.get("min", 0.0), record.get("max", 0.0), (50, 95, 99))


#: Columns of a registry-snapshot table, after the leading name column(s).
_SNAPSHOT_COLUMNS = ["count", "value/mean", "min", "max", "p50", "p95", "p99"]


def _snapshot_rows(snapshot: Dict[str, Any]) -> List[List[Any]]:
    """One row per instrument of a registry snapshot, in name order;
    counters and gauges fill only the value column."""
    rows: List[List[Any]] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            rows.append([name, value.get("count", 0), value.get("mean", 0.0),
                         value.get("min", ""), value.get("max", ""),
                         *_histogram_percentiles(value)])
        else:
            rows.append([name, "", value, "", "", "", "", ""])
    return rows


def _render_manifest(doc: Dict[str, Any]) -> str:
    from repro.analysis.report import format_table

    lines = [f"manifest: {doc.get('label') or '(unlabelled)'}"]
    for key in ("spec_hash", "seed", "git_sha", "python_version",
                "numpy_version", "platform", "created_unix"):
        lines.append(f"  {key}: {doc.get(key)}")
    if doc.get("annotations"):
        for key in sorted(doc["annotations"]):
            lines.append(f"  annotation {key}: {doc['annotations'][key]}")
    rows = _snapshot_rows(doc.get("metrics", {}))
    if rows:
        lines.append(format_table(["metric", *_SNAPSHOT_COLUMNS], rows))
    return "\n".join(lines)


def _render_telemetry(records: List[Dict[str, Any]]) -> str:
    from repro.analysis.report import format_table

    counts: Dict[str, int] = {}
    wall: List[float] = []
    for r in records:
        counts[r["event"]] = counts.get(r["event"], 0) + 1
        if r["event"] == "run_completed" and "wall_s" in r:
            wall.append(float(r["wall_s"]))
    rows = [[name, counts[name]] for name in sorted(counts)]
    out = [f"campaign telemetry: {len(records)} records",
           format_table(["event", "count"], rows)]
    if wall:
        out.append(f"run wall seconds: n={len(wall)} "
                   f"mean={sum(wall) / len(wall):.3f} max={max(wall):.3f}")
    return "\n".join(out)


def _render_bench(doc: Dict[str, Any]) -> str:
    from repro.analysis.report import format_table
    from repro.bench.results import failures, summary_rows

    config = doc.get("config", {})
    lines = [f"bench suite '{doc.get('suite')}': {len(doc['cases'])} cases, "
             f"repeats={config.get('repeats')} warmup={config.get('warmup')} "
             f"seed={config.get('seed')}"]
    manifest = doc.get("manifest", {})
    lines.append(f"  host: {manifest.get('platform')} "
                 f"({manifest.get('cpu_count')} cpus), "
                 f"git {manifest.get('git_sha') or '?'}")
    lines.append(format_table(
        ["case", "n", "median ms", "mad ms", "min ms"], summary_rows(doc)))
    lines += [f"FAILED {name}: {error}" for name, error in failures(doc).items()]
    # The metrics snapshot each case captured, one table for all cases.
    rows = [[name, *row] for name in sorted(doc["cases"])
            for row in _snapshot_rows(doc["cases"][name].get("metrics", {}))]
    if rows:
        lines.append(format_table(["case", "metric", *_SNAPSHOT_COLUMNS],
                                  rows))
    # Hot frames from a profiling run, hottest first.
    for name in sorted(doc["cases"]):
        profile = doc["cases"][name].get("profile")
        if not profile:
            continue
        sampling = profile.get("sampling", {})
        frames = sampling.get("top_frames", [])[:3]
        if frames:
            hot = ", ".join(f"{f['frame']} ({f['self_samples']})"
                            for f in frames)
            lines.append(f"  {name}: {sampling.get('samples', 0)} samples; "
                         f"hot: {hot}")
    return "\n".join(lines)


def _render_flight(records: List[Dict[str, Any]]) -> str:
    from repro.analysis.report import format_table

    header, events = records[0], records[1:]
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.get("kind", "?")] = counts.get(e.get("kind", "?"), 0) + 1
    lines = [f"flight recorder: {len(events)} events"
             + (f", reason={header.get('reason')}"
                if header.get("reason") else "")
             + (f", dropped={header.get('dropped')}"
                if header.get("dropped") else "")]
    lines.append(format_table(
        ["kind", "count"], [[k, counts[k]] for k in sorted(counts)]))
    if events:
        span = events[-1].get("ts", 0.0) - events[0].get("ts", 0.0)
        lines.append(f"window: {span:.3f} s "
                     f"(seq {events[0].get('seq')}..{events[-1].get('seq')})")
    return "\n".join(lines)


def _render_trace_shard(doc: Dict[str, Any]) -> str:
    spans = [r for r in doc.get("events", []) if r.get("type") == "span"]
    instants = [r for r in doc.get("events", []) if r.get("type") == "instant"]
    head = (f"trace shard: process {doc.get('process_name')!r} "
            f"(pid {doc.get('pid')}), trace {doc.get('trace_id', '')[:12]}…, "
            f"{len(spans)} spans, {len(instants)} instants"
            + (f", dropped={doc.get('dropped')}" if doc.get("dropped") else ""))
    return head + "\n" + _span_rows(spans, instants)


def _render_series(doc: Dict[str, Any]) -> str:
    from repro.analysis.report import format_table

    series = doc.get("series", {})
    rows: List[List[Any]] = []
    for name in sorted(series):
        entry = series[name]
        points = entry.get("points", [])
        last = points[-1][1] if points else ""
        rows.append([name, entry.get("kind", "?"), len(points), last])
    head = (f"series snapshot: {len(series)} series, "
            f"interval={doc.get('interval_s')}s, "
            f"samples={doc.get('samples_taken')}")
    return head + "\n" + format_table(
        ["series", "kind", "points", "last"], rows)


def _render_diagnosis(doc: Dict[str, Any]) -> str:
    from repro.analysis.report import format_table

    summary = doc.get("summary", {})
    lines = [f"diagnosis: {summary.get('findings', 0)} finding(s) "
             f"over {len(doc.get('inputs', []))} input(s) "
             f"({summary.get('trace_events', 0)} trace events, "
             f"{summary.get('flight_events', 0)} flight events)"]
    findings = doc.get("findings", [])
    if findings:
        lines.append(format_table(
            ["severity", "kind", "title", "evidence"],
            [[f.get("severity"), f.get("kind"), f.get("title"),
              len(f.get("evidence", []))] for f in findings]))
        for f in findings:
            lines.append(f"  [{f.get('severity')}] {f.get('title')}: "
                         f"{f.get('detail')}")
    for p in doc.get("critical_paths", []):
        chain = " > ".join(s["name"] for s in p.get("steps", []))
        lines.append(f"  critical path ({p.get('total_us', 0) / 1e3:.2f} ms): "
                     f"{chain}")
    controllers = doc.get("controllers", {})
    if controllers:
        lines.append(format_table(
            ["controller", "connections", "energy J", "J/bit"],
            [[name, stats.get("connections"), stats.get("energy_j"),
              stats.get("joules_per_bit")]
             for name, stats in sorted(controllers.items())]))
    return "\n".join(lines)


_RENDERERS = {
    "merged-trace": _render_chrome,
    "trace-shard": _render_trace_shard,
    "series": _render_series,
    "diagnosis": _render_diagnosis,
    "manifest": _render_manifest,
    "telemetry-jsonl": _render_telemetry,
    "flight": _render_flight,
    "bench": _render_bench,
}


def render_file(path: "str | Path") -> str:
    """A printable summary of one artifact file.

    Empty files render as a one-line notice; recoverable parse issues
    (skipped malformed JSONL lines) are appended as warning lines.
    """
    parsed, kind, warnings = load_input(path)
    if kind == "unknown":
        raise ValueError(f"{path}: unrecognized content")
    if kind == "empty":
        return f"== {path} (empty)\n  (no content — skipped)"
    out = f"== {path} ({kind})\n" + _RENDERERS[kind](parsed)
    for warning in warnings:
        out += f"\nwarning: {warning}"
    return out
