"""``repro obs analyze`` — a diagnosis engine over observability output.

The other obs modules *collect*: traces (merged timelines or per-process
shards), series snapshots (``repro.obs.series/1``), flight-recorder
dumps (``repro.obs.flight/1``), and run manifests.  This module *reads*
them together and emits one structured **diagnosis report** (schema
``repro.obs.diagnosis/1``):

* **critical paths** — for every root span in a trace, the chain of
  longest-duration children: where a transfer's wall time actually went;
* **detectors** — pattern matchers over events and series, each finding
  carrying machine-followable *evidence pointers* (span ids, flight
  sequence numbers, series point timestamps) back into the inputs:

  - ``loss``           packet-loss activity (trace instants / flight events)
  - ``rto_storm``      clusters of retransmission timeouts in a short window
  - ``cwnd_collapse``  a cwnd series dropping far below its running peak
  - ``stale_gauge``    gauges that silently stopped updating
  - ``energy_spike``   power draw far above the run's median
  - ``conn_dropped``   connections torn down without completing
  - ``run_failed``     campaign runs that exhausted their retries

* **controller comparison** — per-controller joules-per-bit attribution
  (DTS vs LIA, the paper's core metric) from ``serve.connection`` spans
  and/or manifest connection snapshots.

Every piece degrades gracefully: an analyzer fed only a flight dump
still reports flight findings; severity is ``info < warning < critical``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.results import BENCH_SCHEMA
from repro.bench.results import validate as validate_bench
from repro.obs.flight import FLIGHT_SCHEMA
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.tail import split_jsonl
from repro.obs.timeseries import SERIES_SCHEMA
from repro.obs.tracing import TRACE_SCHEMA

__all__ = [
    "DIAGNOSIS_SCHEMA",
    "Finding",
    "analyze",
    "analyze_paths",
    "classify_input",
    "load_input",
    "validate_diagnosis",
]

#: Bump when the diagnosis document shape changes.
DIAGNOSIS_SCHEMA = "repro.obs.diagnosis/1"

SEVERITIES = ("info", "warning", "critical")

#: ``rto_storm``: this many RTOs inside :data:`RTO_STORM_WINDOW_S`.
RTO_STORM_COUNT = 3
RTO_STORM_WINDOW_S = 10.0

#: ``cwnd_collapse``: a point below this fraction of the running peak.
CWND_COLLAPSE_FRACTION = 0.33

#: ``stale_gauge``: updated this many seconds before the freshest gauge.
STALE_GAUGE_LAG_S = 10.0

#: ``energy_spike``: a power point above this multiple of the median.
ENERGY_SPIKE_FACTOR = 3.0


class Finding:
    """One detected condition with evidence pointers into the inputs."""

    def __init__(self, kind: str, severity: str, title: str, detail: str,
                 evidence: Optional[List[Dict[str, Any]]] = None):
        assert severity in SEVERITIES, severity
        self.kind = kind
        self.severity = severity
        self.title = title
        self.detail = detail
        self.evidence = evidence or []

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "severity": self.severity,
                "title": self.title, "detail": self.detail,
                "evidence": self.evidence}


# --------------------------------------------------------------- input sniffing

#: Whole-document artifacts: ``schema`` -> kind.
_DOCUMENT_KINDS = {
    TRACE_SCHEMA: "trace-shard",
    SERIES_SCHEMA: "series",
    MANIFEST_SCHEMA: "manifest",
    DIAGNOSIS_SCHEMA: "diagnosis",
    BENCH_SCHEMA: "bench",
}


def _jsonl_kind(record: Dict[str, Any]) -> str:
    """The kind of a JSONL artifact whose first record is ``record``."""
    if record.get("schema") == FLIGHT_SCHEMA:
        return "flight"
    if "seq" in record and "kind" in record and "ts" in record:
        return "flight"
    if "event" in record:
        return "telemetry-jsonl"
    return "unknown"


def classify_input(doc: Any) -> str:
    """The input kind of one loaded document (see :func:`load_input`)."""
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return "merged-trace"
        return _DOCUMENT_KINDS.get(doc.get("schema"), "unknown")
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return _jsonl_kind(doc[0])
    return "unknown"


def load_input(path: "str | Path") -> Tuple[Any, str, List[str]]:
    """Load one artifact, its kind sniffed from content; returns
    ``(document, kind, warnings)``.  The one reader ``obs report`` and
    ``obs analyze`` share.

    JSON documents load whole; JSONL files (flight dumps, campaign
    telemetry) load as a list of records through
    :func:`~repro.obs.tail.split_jsonl`, so a torn last line — a writer
    killed mid-dump, or one still appending — is skipped silently and a
    malformed interior line is skipped with a warning.  Both flight forms,
    a JSONL dump and a saved ``/events`` document, load as one
    ``[header, *events]`` list.  An empty file, or one holding only a torn
    line, is kind ``"empty"``; content no table names is ``"unknown"``.
    A line that is not UTF-8 is malformed like one that is not JSON.
    Raises ValueError when nothing parses, and when a field the kind's
    renderer or detectors read is missing or mistyped (naming the file
    and the field).
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.strip():
        return None, "empty", [f"{path}: empty file"]
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:  # not one UTF-8 JSON document
        doc = None
    if isinstance(doc, dict):
        if doc.get("schema") == FLIGHT_SCHEMA and "events" in doc:
            # A saved /events document: its header fields wrap the events.
            header = {k: v for k, v in doc.items() if k != "events"}
            records = [header, *_expect(path, "events", doc["events"], list)]
            return _check_fields(path, "flight", records), "flight", []
        kind = classify_input(doc)
        if kind != "unknown" or _jsonl_kind(doc) == "unknown":
            return _check_fields(path, kind, doc), kind, []
    # Else one object per line (a one-line JSONL file parses whole too).
    records, bad_lines, partial_tail = split_jsonl(data)
    warnings = []
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:5])
        more = f" (+{len(bad_lines) - 5} more)" if len(bad_lines) > 5 else ""
        warnings.append(f"{path}: skipped {len(bad_lines)} malformed "
                        f"line(s): {shown}{more}")
    if not records:
        if partial_tail and data.lstrip().startswith(b"{"):
            # Only a mid-append fragment so far.  Anything that could
            # never become a JSON object is garbage, not a torn append.
            return None, "empty", [f"{path}: only a partial line so far "
                                   f"(writer still appending?)"]
        raise ValueError(f"{path}: no JSON objects found")
    kind = classify_input(records)
    if kind == "flight" and "schema" not in records[0]:
        records.insert(0, {})  # a headerless dump keeps the same shape
    return _check_fields(path, kind, records), kind, warnings


# ---------------------------------------------------------------- field checks

_NUMBER = (int, float)
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               _NUMBER: "a number", (dict, type(None)): "an object or null",
               (*_NUMBER, type(None)): "a number or null"}


def _expect(path: Path, where: str, value: Any, types) -> Any:
    """``value`` when it is one of ``types``; else ValueError naming the
    file and the field."""
    if not isinstance(value, types):
        raise ValueError(f"{path}: {where} must be {_TYPE_NAMES[types]}, "
                         f"got {json.dumps(value)[:40]}")
    return value


def _optional(path: Path, where: str, record: Dict[str, Any], key: str,
              types) -> None:
    """Check ``record[key]`` when the key is present (null is a value)."""
    if key in record:
        _expect(path, f"{where}.{key}" if where else key, record[key], types)


def _check_trace_events(path: Path, where: str, events: Any, type_key: str,
                        span: str, instant: str) -> None:
    for i, ev in enumerate(_expect(path, where, events, list)):
        at = f"{where}[{i}]"
        _expect(path, at, ev, dict)
        _optional(path, at, ev, "ts", _NUMBER)
        if ev.get(type_key) in (span, instant):
            _expect(path, f"{at}.name", ev.get("name"), str)
            _optional(path, at, ev, "args", (dict, type(None)))
        if ev.get(type_key) == span:
            _optional(path, at, ev, "dur", _NUMBER)


def _check_fields(path: Path, kind: str, doc: Any) -> Any:
    """``doc`` when every field that :mod:`repro.obs.report`'s renderer
    and this module's detectors read for ``kind`` has its type; else
    ValueError naming the file and the field."""
    if kind == "merged-trace":
        _check_trace_events(path, "traceEvents", doc["traceEvents"], "ph",
                            "X", "i")
    elif kind == "trace-shard":
        _optional(path, "", doc, "trace_id", str)
        _check_trace_events(path, "events", doc.get("events", []), "type",
                            "span", "instant")
    elif kind == "series":
        series = _expect(path, "series", doc.get("series", {}), dict)
        for name, entry in series.items():
            at = f"series[{name!r}]"
            _expect(path, at, entry, dict)
            _optional(path, at, entry, "updated_unix",
                      (*_NUMBER, type(None)))
            for j, point in enumerate(_expect(
                    path, f"{at}.points", entry.get("points", []), list)):
                if not (isinstance(point, list) and len(point) == 2
                        and all(isinstance(x, _NUMBER) for x in point)):
                    raise ValueError(f"{path}: {at}.points[{j}] must be a "
                                     f"[t, value] pair of numbers")
    elif kind == "flight":
        for i, record in enumerate(doc):
            at = f"record {i}"
            _expect(path, at, record, dict)
            _optional(path, at, record, "ts", _NUMBER)
            _optional(path, at, record, "kind", str)
    elif kind == "telemetry-jsonl":
        for i, record in enumerate(doc):
            at = f"record {i}"
            _expect(path, f"{at}.event", record.get("event"), str)
            _optional(path, at, record, "wall_s", _NUMBER)
    elif kind == "bench":
        try:
            validate_bench(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    elif kind == "manifest":
        _optional(path, "", doc, "metrics", dict)
        _optional(path, "", doc, "annotations", (dict, type(None)))
        if doc.get("annotations"):
            _optional(path, "annotations", doc["annotations"], "connections",
                      (dict, type(None)))
    elif kind == "diagnosis":
        problems = validate_diagnosis(doc)
        if problems:
            raise ValueError(f"{path}: {problems[0]}")
        _expect(path, "summary", doc["summary"], dict)
        _expect(path, "inputs", doc["inputs"], list)
        _expect(path, "controllers", doc["controllers"], dict)
        for i, p in enumerate(_expect(path, "critical_paths",
                                      doc["critical_paths"], list)):
            _expect(path, f"critical_paths[{i}]", p, dict)
            _optional(path, f"critical_paths[{i}]", p, "total_us", _NUMBER)
    return doc


# ------------------------------------------------------------- trace handling

def _normalize_trace_events(doc: Dict[str, Any],
                            kind: str) -> List[Dict[str, Any]]:
    """Span/instant records in one shape regardless of input form.

    Yields dicts with ``name``, ``ts_us``, ``dur_us`` (spans only),
    ``span_id``, ``parent_span_id``, ``trace_id``, ``args``, ``pid``.
    """
    out: List[Dict[str, Any]] = []
    if kind == "merged-trace":
        for ev in doc.get("traceEvents", []):
            ph = ev.get("ph")
            if ph not in ("X", "i"):
                continue
            args = ev.get("args") or {}
            out.append({
                "name": ev.get("name", "?"),
                "ts_us": float(ev.get("ts", 0.0)),
                "dur_us": float(ev.get("dur", 0.0)) if ph == "X" else None,
                "span_id": args.get("span_id"),
                "parent_span_id": args.get("parent_span_id"),
                "trace_id": args.get("trace_id"),
                "args": args,
                "pid": ev.get("pid"),
            })
    else:  # trace-shard
        pid = doc.get("pid")
        for ev in doc.get("events", []):
            out.append({
                "name": ev.get("name", "?"),
                "ts_us": float(ev.get("ts", 0.0)) * 1e6,
                "dur_us": (float(ev.get("dur", 0.0)) * 1e6
                           if ev.get("type") == "span" else None),
                "span_id": ev.get("span_id"),
                "parent_span_id": ev.get("parent_span_id"),
                "trace_id": ev.get("trace_id"),
                "args": ev.get("args") or {},
                "pid": pid,
            })
    return out


def _critical_paths(events: List[Dict[str, Any]],
                    limit: int = 10) -> List[Dict[str, Any]]:
    """Per root span, the chain of longest-duration children.

    The classic trace question — "where did the time go?" — answered
    structurally: from each root, repeatedly descend into the child
    span with the largest duration.
    """
    spans = [e for e in events if e["dur_us"] is not None and e["span_id"]]
    by_id = {e["span_id"]: e for e in spans}
    children: Dict[str, List[Dict[str, Any]]] = {}
    for e in spans:
        parent = e["parent_span_id"]
        if parent:
            children.setdefault(parent, []).append(e)
    roots = [e for e in spans
             if not e["parent_span_id"] or e["parent_span_id"] not in by_id]
    roots.sort(key=lambda e: e["dur_us"], reverse=True)
    paths = []
    for root in roots[:limit]:
        steps = []
        node = root
        seen = set()
        while node is not None and node["span_id"] not in seen:
            seen.add(node["span_id"])
            steps.append({
                "name": node["name"],
                "span_id": node["span_id"],
                "dur_us": round(node["dur_us"], 3),
            })
            kids = children.get(node["span_id"], [])
            node = max(kids, key=lambda e: e["dur_us"]) if kids else None
        paths.append({
            "root": root["name"],
            "trace_id": root.get("trace_id"),
            "total_us": round(root["dur_us"], 3),
            "steps": steps,
        })
    return paths


def _controller_stats(events: List[Dict[str, Any]],
                      manifests: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-controller joules-per-bit from connection-level telemetry."""
    #: controller -> list of (energy_j, bits)
    samples: Dict[str, List[Tuple[float, float]]] = {}

    def add(controller: Any, energy_j: Any, bits: float) -> None:
        if controller is None or energy_j is None or bits <= 0:
            return
        samples.setdefault(str(controller), []).append(
            (float(energy_j), bits))

    for e in events:
        if e["name"] == "serve.connection":
            args = e["args"]
            bits = (float(args.get("acked_segments") or 0)
                    * float(args.get("payload_bytes") or 0) * 8)
            add(args.get("controller"), args.get("energy_j"), bits)
    for m in manifests:
        conns = (m.get("annotations") or {}).get("connections") or {}
        for snap in conns.values():
            if not isinstance(snap, dict):
                continue
            bits = (float(snap.get("acked_segments") or 0)
                    * float(snap.get("payload_bytes") or 0) * 8)
            add(snap.get("controller"), snap.get("energy_j"), bits)

    out: Dict[str, Any] = {}
    for controller, rows in sorted(samples.items()):
        energy = sum(e for e, _ in rows)
        bits = sum(b for _, b in rows)
        out[controller] = {
            "connections": len(rows),
            "energy_j": round(energy, 6),
            "bits": bits,
            "joules_per_bit": energy / bits if bits > 0 else None,
        }
    return out


# ------------------------------------------------------------------ detectors

def _detect_loss(events: List[Dict[str, Any]],
                 flight_events: List[Dict[str, Any]]) -> Optional[Finding]:
    evidence: List[Dict[str, Any]] = []
    n_trace = 0
    for e in events:
        if e["name"] in ("serve.loss", "fetch.loss"):
            n_trace += 1
            if len(evidence) < 8:
                evidence.append({"type": "span", "name": e["name"],
                                 "parent_span_id": e["parent_span_id"],
                                 "ts_us": e["ts_us"]})
    n_flight = 0
    for ev in flight_events:
        if ev.get("kind") == "loss":
            n_flight += 1
            if len(evidence) < 16:
                evidence.append({"type": "flight", "kind": "loss",
                                 "seq": ev.get("seq"), "ts": ev.get("ts")})
    total = n_trace + n_flight
    if total == 0:
        return None
    return Finding(
        "loss", "warning" if total >= 5 else "info",
        f"{total} packet-loss event(s) observed",
        f"{n_trace} loss instant(s) in traces, {n_flight} flight "
        f"event(s); loss drives retransmission energy, the paper's "
        f"central cost term.",
        evidence)


def _detect_rto_storm(events: List[Dict[str, Any]],
                      flight_events: List[Dict[str, Any]]) -> Optional[Finding]:
    #: (timestamp seconds, evidence pointer) from either source.
    hits: List[Tuple[float, Dict[str, Any]]] = []
    for e in events:
        if e["name"] in ("serve.rto", "fetch.rto"):
            hits.append((e["ts_us"] / 1e6,
                         {"type": "span", "name": e["name"],
                          "parent_span_id": e["parent_span_id"],
                          "ts_us": e["ts_us"]}))
    for ev in flight_events:
        if ev.get("kind") == "rto":
            hits.append((float(ev.get("ts", 0.0)),
                         {"type": "flight", "kind": "rto",
                          "seq": ev.get("seq"), "ts": ev.get("ts")}))
    if not hits:
        return None
    hits.sort(key=lambda h: h[0])
    best: List[Tuple[float, Dict[str, Any]]] = []
    for i in range(len(hits)):
        j = i
        while (j + 1 < len(hits)
               and hits[j + 1][0] - hits[i][0] <= RTO_STORM_WINDOW_S):
            j += 1
        if j - i + 1 > len(best):
            best = hits[i:j + 1]
    if len(best) < RTO_STORM_COUNT:
        return Finding(
            "rto", "info", f"{len(hits)} RTO expiries (no storm)",
            "Retransmission timeouts occurred but never clustered "
            f"({RTO_STORM_COUNT} within {RTO_STORM_WINDOW_S:g}s).",
            [h[1] for h in hits[:8]])
    return Finding(
        "rto_storm", "critical",
        f"RTO storm: {len(best)} timeouts in "
        f"{best[-1][0] - best[0][0]:.2f}s",
        "Clustered retransmission timeouts indicate a stalled path or "
        "collapsed window; expect idle-energy burn while pipes drain.",
        [h[1] for h in best[:16]])


def _iter_series(series_docs: List[Dict[str, Any]]):
    for doc in series_docs:
        for name, entry in (doc.get("series") or {}).items():
            yield name, entry


def _detect_cwnd_collapse(series_docs: List[Dict[str, Any]]) -> List[Finding]:
    findings = []
    for name, entry in _iter_series(series_docs):
        if not name.endswith(".cwnd"):
            continue
        points = entry.get("points") or []
        peak = 0.0
        worst = None  # (t, value, peak-at-that-time)
        for t, v in points:
            peak = max(peak, float(v))
            if peak >= 4.0 and float(v) < CWND_COLLAPSE_FRACTION * peak:
                if worst is None or float(v) / peak < worst[1] / worst[2]:
                    worst = (float(t), float(v), peak)
        if worst is not None:
            findings.append(Finding(
                "cwnd_collapse", "warning",
                f"cwnd collapse on {name}",
                f"cwnd fell to {worst[1]:.1f} from a running peak of "
                f"{worst[2]:.1f} ({worst[1] / worst[2]:.0%}); sustained "
                "loss or an RTO took this subflow to slow start.",
                [{"type": "series", "name": name, "t": worst[0],
                  "value": worst[1], "peak": worst[2]}]))
    return findings


def _detect_stale_gauges(series_docs: List[Dict[str, Any]]) -> List[Finding]:
    findings = []
    for doc in series_docs:
        entries = [(name, entry) for name, entry in
                   (doc.get("series") or {}).items()
                   if entry.get("kind") == "gauge"
                   and entry.get("updated_unix") is not None]
        if len(entries) < 2:
            continue
        freshest = max(float(e["updated_unix"]) for _, e in entries)
        for name, entry in entries:
            lag = freshest - float(entry["updated_unix"])
            if lag > STALE_GAUGE_LAG_S:
                findings.append(Finding(
                    "stale_gauge", "warning",
                    f"gauge {name} stopped updating",
                    f"last write {lag:.1f}s before the freshest gauge; "
                    "its series now shows a flat line, not live state.",
                    [{"type": "series", "name": name,
                      "updated_unix": entry["updated_unix"],
                      "lag_s": round(lag, 3)}]))
    return findings


def _detect_energy_spikes(series_docs: List[Dict[str, Any]]) -> List[Finding]:
    findings = []
    for name, entry in _iter_series(series_docs):
        if not name.endswith(".power_w"):
            continue
        points = [(float(t), float(v)) for t, v in entry.get("points") or []]
        positive = sorted(v for _, v in points if v > 0)
        if len(positive) < 4:
            continue
        median = positive[len(positive) // 2]
        spikes = [(t, v) for t, v in points
                  if median > 0 and v > ENERGY_SPIKE_FACTOR * median]
        if spikes:
            t, v = max(spikes, key=lambda p: p[1])
            findings.append(Finding(
                "energy_spike", "warning",
                f"power spike on {name}: {v:.2f} W vs {median:.2f} W median",
                f"{len(spikes)} point(s) above "
                f"{ENERGY_SPIKE_FACTOR:g}x the median power; check for "
                "retransmission bursts or a path running hot.",
                [{"type": "series", "name": name, "t": t, "value": v,
                  "median": median}]))
    return findings


def _detect_flight_failures(
        flight_events: List[Dict[str, Any]]) -> List[Finding]:
    findings = []
    dropped = [e for e in flight_events if e.get("kind") == "conn_dropped"]
    if dropped:
        findings.append(Finding(
            "conn_dropped", "warning",
            f"{len(dropped)} connection(s) dropped before completing",
            "Reasons: " + ", ".join(
                sorted({str(e.get("reason", "?")) for e in dropped})),
            [{"type": "flight", "kind": "conn_dropped", "seq": e.get("seq"),
              "conn": e.get("conn"), "reason": e.get("reason")}
             for e in dropped[:8]]))
    failed = [e for e in flight_events
              if e.get("kind") == "campaign_run_failed"]
    if failed:
        findings.append(Finding(
            "run_failed", "critical",
            f"{len(failed)} campaign run(s) failed after retries",
            "; ".join(str(e.get("error", "?")) for e in failed[:3]),
            [{"type": "flight", "kind": "campaign_run_failed",
              "seq": e.get("seq"), "spec_hash": e.get("spec_hash"),
              "error": e.get("error")} for e in failed[:8]]))
    return findings


def _controller_finding(controllers: Dict[str, Any]) -> Optional[Finding]:
    rows = [(name, stats["joules_per_bit"])
            for name, stats in controllers.items()
            if stats.get("joules_per_bit")]
    if len(rows) < 2:
        return None
    rows.sort(key=lambda r: r[1])
    (best, best_jpb), (worst, worst_jpb) = rows[0], rows[-1]
    if best_jpb <= 0:
        return None
    ratio = worst_jpb / best_jpb
    return Finding(
        "controller_comparison",
        "info" if ratio < 1.1 else "warning",
        f"{worst} spends {ratio:.2f}x the joules-per-bit of {best}",
        f"{best}: {best_jpb:.3e} J/bit vs {worst}: {worst_jpb:.3e} J/bit "
        "across the observed connections (the paper's Fig. 8 metric).",
        [{"type": "controllers", "controller": name,
          "joules_per_bit": jpb} for name, jpb in rows])


# ----------------------------------------------------------------- entry point

def analyze(
    *,
    traces: Sequence[Dict[str, Any]] = (),
    shards: Sequence[Dict[str, Any]] = (),
    series: Sequence[Dict[str, Any]] = (),
    flights: Sequence[List[Dict[str, Any]]] = (),
    manifests: Sequence[Dict[str, Any]] = (),
    inputs: Optional[List[Dict[str, str]]] = None,
) -> Dict[str, Any]:
    """Run every detector over the given documents; returns the report."""
    events: List[Dict[str, Any]] = []
    for doc in traces:
        events.extend(_normalize_trace_events(doc, "merged-trace"))
    for doc in shards:
        events.extend(_normalize_trace_events(doc, "trace-shard"))
    series_docs = list(series)
    flight_events: List[Dict[str, Any]] = []
    for dump in flights:
        # Line 0 is the header (schema/counts); the rest are events.
        flight_events.extend(e for e in dump[1:] if isinstance(e, dict))
    manifest_docs = list(manifests)

    findings: List[Finding] = []
    for f in (_detect_loss(events, flight_events),
              _detect_rto_storm(events, flight_events)):
        if f is not None:
            findings.append(f)
    findings.extend(_detect_cwnd_collapse(series_docs))
    findings.extend(_detect_stale_gauges(series_docs))
    findings.extend(_detect_energy_spikes(series_docs))
    findings.extend(_detect_flight_failures(flight_events))

    controllers = _controller_stats(events, manifest_docs)
    comparison = _controller_finding(controllers)
    if comparison is not None:
        findings.append(comparison)

    order = {sev: i for i, sev in enumerate(reversed(SEVERITIES))}
    findings.sort(key=lambda f: (order[f.severity], f.kind))

    by_severity = {sev: 0 for sev in SEVERITIES}
    for f in findings:
        by_severity[f.severity] += 1

    return {
        "schema": DIAGNOSIS_SCHEMA,
        "generated_unix": round(time.time(), 6),
        "inputs": inputs or [],
        "summary": {
            "findings": len(findings),
            "by_severity": by_severity,
            "trace_events": len(events),
            "flight_events": len(flight_events),
            "series_docs": len(series_docs),
        },
        "findings": [f.as_dict() for f in findings],
        "critical_paths": _critical_paths(events),
        "controllers": controllers,
    }


def analyze_paths(paths: Sequence["str | Path"]) -> Dict[str, Any]:
    """Load + classify each file, then :func:`analyze` them together.

    Unknown and empty inputs are recorded (kind ``unknown`` / ``empty``)
    but not analyzed, so a glob that caught a stray file degrades to a
    warning in ``inputs`` rather than an error.
    """
    traces, shards, series, flights, manifests = [], [], [], [], []
    inputs = []
    for path in paths:
        doc, kind, _warnings = load_input(path)
        inputs.append({"path": str(path), "kind": kind})
        if kind == "merged-trace":
            traces.append(doc)
        elif kind == "trace-shard":
            shards.append(doc)
        elif kind == "series":
            series.append(doc)
        elif kind == "flight":
            flights.append(doc)
        elif kind == "manifest":
            manifests.append(doc)
    return analyze(traces=traces, shards=shards, series=series,
                   flights=flights, manifests=manifests, inputs=inputs)


def validate_diagnosis(doc: Any) -> List[str]:
    """Shape-check a diagnosis document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["diagnosis must be a JSON object"]
    if doc.get("schema") != DIAGNOSIS_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {DIAGNOSIS_SCHEMA!r}")
    for key in ("generated_unix", "inputs", "summary", "findings",
                "critical_paths", "controllers"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    for i, f in enumerate(doc.get("findings") or []):
        if not isinstance(f, dict):
            problems.append(f"findings[{i}] is not an object")
            continue
        for key in ("kind", "severity", "title", "detail", "evidence"):
            if key not in f:
                problems.append(f"findings[{i}] missing {key!r}")
        if f.get("severity") not in SEVERITIES:
            problems.append(
                f"findings[{i}] has bad severity {f.get('severity')!r}")
        if not isinstance(f.get("evidence"), list):
            problems.append(f"findings[{i}].evidence is not a list")
    return problems
