"""Summarize observability artifacts as terminal tables.

``python -m repro obs report FILE...`` accepts any artifact this
subsystem (or campaign telemetry) writes and renders a human summary:

* Chrome ``trace_event`` JSON (``--trace`` output) — per-span-name
  count/total/mean duration plus instant-event counts;
* trace JSONL (``Tracer.export_jsonl``) — same summary;
* metrics JSONL (``--metrics`` output / ``MetricsRegistry.write_jsonl``)
  — instruments with values and histogram stats;
* run manifests — provenance fields plus the scalar metrics;
* campaign telemetry JSONL logs — event counts and wall-time stats;
* ``BENCH_*`` benchmark results — per-case timing stats, histogram
  percentiles, and hot frames.

File kind is sniffed from content, never from the extension.  Empty
files report kind ``"empty"`` (the CLI warns and moves on), and JSONL
inputs with malformed lines — a truncated tail from a killed run is the
common case — keep their parseable records and surface the skip count
as a warning instead of failing the whole report.  A *partial trailing
line* (no newline — a concurrent writer caught mid-append, the normal
state of a live telemetry log the dashboard tailer shares with us) is
skipped silently via :func:`repro.obs.tail.split_jsonl`, not raised and
not even warned about.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.results import BENCH_SCHEMA
from repro.obs.analyze import DIAGNOSIS_SCHEMA
from repro.obs.flight import FLIGHT_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import percentiles_from_counts
from repro.obs.tail import split_jsonl
from repro.obs.timeseries import SERIES_SCHEMA
from repro.obs.tracing import TRACE_SCHEMA

__all__ = ["describe_file", "render_file"]


def _load(path: Path) -> Tuple[str, Any, List[str]]:
    """Sniff and parse one artifact; returns (kind, parsed, warnings)."""
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        return "empty", None, [f"{path}: empty file"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return "chrome-trace", doc, []
        if doc.get("schema") == MANIFEST_SCHEMA:
            return "manifest", doc, []
        if doc.get("schema") == BENCH_SCHEMA:
            return "bench", doc, []
        if doc.get("schema") == TRACE_SCHEMA:
            return "trace-shard", doc, []
        if doc.get("schema") == SERIES_SCHEMA:
            return "series", doc, []
        if doc.get("schema") == DIAGNOSIS_SCHEMA:
            return "diagnosis", doc, []
        if not _jsonl_kind(doc):
            raise ValueError(f"{path}: unrecognized JSON document")
        # else: a one-line JSONL artifact that parsed as a single object;
        # fall through to the line-by-line path.
    # JSONL: one object per line.  Tolerate malformed lines (truncated
    # tails from killed runs) as long as something parses; a partial
    # *trailing* line is a concurrent append in flight and is skipped
    # without comment.
    records, bad_lines, partial_tail = split_jsonl(text)
    warnings = []
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:5])
        more = f" (+{len(bad_lines) - 5} more)" if len(bad_lines) > 5 else ""
        warnings.append(f"{path}: skipped {len(bad_lines)} malformed "
                        f"line(s): {shown}{more}")
    if not records:
        if partial_tail and text.lstrip().startswith("{"):
            # Only a mid-append fragment so far: report it like an empty
            # file instead of failing a live tail's first read.  Anything
            # that could never become a JSON object is garbage, not a
            # torn append, and still fails below.
            return "empty", None, [f"{path}: only a partial line so far "
                                   f"(writer still appending?)"]
        raise ValueError(f"{path}: no JSON objects found")
    kind = _jsonl_kind(records[0])
    if kind is None:
        raise ValueError(f"{path}: unrecognized JSONL records")
    return kind, records, warnings


def _jsonl_kind(record: Dict[str, Any]) -> Optional[str]:
    """The JSONL artifact kind a record belongs to, or None."""
    if record.get("schema") == FLIGHT_SCHEMA:
        return "flight-jsonl"
    if "kind" in record and "name" in record:
        return "metrics-jsonl"
    if "seq" in record and "kind" in record and "ts" in record:
        return "flight-jsonl"
    if "type" in record and "ts" in record:
        return "trace-jsonl"
    if "event" in record:
        return "telemetry-jsonl"
    return None


def describe_file(path: "str | Path") -> Tuple[str, Any]:
    """(kind, parsed content) for an artifact file."""
    kind, parsed, _warnings = _load(Path(path))
    return kind, parsed


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


def _render_trace_jsonl(records: List[Dict[str, Any]]) -> str:
    spans = [r for r in records if r.get("type") == "span"]
    instants = [r for r in records if r.get("type") == "instant"]
    head = f"trace log: {len(spans)} spans, {len(instants)} instants"
    return head + "\n" + _span_rows(spans, instants)


def _histogram_percentiles(record: Dict[str, Any]) -> List[Any]:
    """p50/p95/p99 cells for a histogram snapshot/JSONL record."""
    count = record.get("count", 0)
    if not count or "buckets" not in record or "counts" not in record:
        return ["", "", ""]
    return percentiles_from_counts(
        record["buckets"], record["counts"],
        record.get("min", 0.0), record.get("max", 0.0), (50, 95, 99))


def _render_metrics(records: List[Dict[str, Any]]) -> str:
    from repro.analysis.report import format_table

    rows: List[List[Any]] = []
    for r in records:
        if r["kind"] == "histogram":
            rows.append([r["name"], r["kind"], r.get("count", 0),
                         r.get("mean", 0.0), r.get("min", ""),
                         r.get("max", ""), *_histogram_percentiles(r)])
        else:
            rows.append([r["name"], r["kind"], "", r.get("value", 0),
                         "", "", "", "", ""])
    head = f"metrics: {len(records)} instruments"
    return head + "\n" + format_table(
        ["name", "kind", "count", "value/mean", "min", "max",
         "p50", "p95", "p99"], rows)


def _render_manifest(doc: Dict[str, Any]) -> str:
    from repro.analysis.report import format_table

    lines = [f"manifest: {doc.get('label') or '(unlabelled)'}"]
    for key in ("spec_hash", "seed", "git_sha", "python_version",
                "numpy_version", "platform", "created_unix"):
        lines.append(f"  {key}: {doc.get(key)}")
    if doc.get("annotations"):
        for key in sorted(doc["annotations"]):
            lines.append(f"  annotation {key}: {doc['annotations'][key]}")
    metrics = doc.get("metrics", {})
    rows: List[List[Any]] = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, dict):
            rows.append([name, value.get("count", 0), value.get("mean", 0.0)])
        else:
            rows.append([name, "", value])
    if rows:
        lines.append(format_table(["metric", "count", "value/mean"], rows))
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
    # Histogram metrics captured per case, with interpolated percentiles.
    hist_rows: List[List[Any]] = []
    for name in sorted(doc["cases"]):
        for metric, value in sorted(
                doc["cases"][name].get("metrics", {}).items()):
            if isinstance(value, dict) and "counts" in value:
                hist_rows.append([name, metric, value.get("count", 0),
                                  value.get("mean", 0.0),
                                  *_histogram_percentiles(value)])
    if hist_rows:
        lines.append(format_table(
            ["case", "histogram", "count", "mean", "p50", "p95", "p99"],
            hist_rows))
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

    header = records[0] if records and "schema" in records[0] else {}
    events = [r for r in records if "seq" in r]
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.get("kind", "?")] = counts.get(e.get("kind", "?"), 0) + 1
    lines = [f"flight recorder: {len(events)} events"
             + (f", reason={header.get('reason')}" if header else "")
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
    "chrome-trace": _render_chrome,
    "trace-shard": _render_trace_shard,
    "series": _render_series,
    "diagnosis": _render_diagnosis,
    "trace-jsonl": _render_trace_jsonl,
    "metrics-jsonl": _render_metrics,
    "manifest": _render_manifest,
    "telemetry-jsonl": _render_telemetry,
    "flight-jsonl": _render_flight,
    "bench": _render_bench,
}


def render_file(path: "str | Path") -> str:
    """A printable summary of one artifact file.

    Empty files render as a one-line notice; recoverable parse issues
    (skipped malformed JSONL lines) are appended as warning lines.
    """
    kind, parsed, warnings = _load(Path(path))
    if kind == "empty":
        return f"== {path} (empty)\n  (no content — skipped)"
    out = f"== {path} ({kind})\n" + _RENDERERS[kind](parsed)
    for warning in warnings:
        out += f"\nwarning: {warning}"
    return out
