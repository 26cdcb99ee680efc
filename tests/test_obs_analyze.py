"""The `obs analyze` diagnosis engine: detectors, classification, schema.

Each detector is exercised with a minimal synthetic input that should
trip it — and a sibling input that should not — so threshold changes
show up as explicit test diffs rather than silent behavior shifts.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.analyze import (
    DIAGNOSIS_SCHEMA,
    RTO_STORM_COUNT,
    analyze,
    analyze_paths,
    classify_input,
    load_input,
    validate_diagnosis,
)
from repro.obs.flight import FLIGHT_SCHEMA
from repro.obs.timeseries import SERIES_SCHEMA
from repro.obs.tracing import TRACE_SCHEMA, Tracer


def _findings(report, kind):
    return [f for f in report["findings"] if f["kind"] == kind]


def _shard_with(names, gap_s=0.0):
    """A trace shard whose instants carry the given names, spaced gap_s."""
    tracer = Tracer()
    conn = tracer.start_span("serve.connection")
    for i, name in enumerate(names):
        tracer._record({"type": "instant", "name": name, "ts": i * gap_s,
                        "depth": 1, "parent_span_id": conn.span_id,
                        "trace_id": tracer.trace_id, "args": {}})
    conn.finish()
    return tracer.shard_dict("synthetic")


def _flight(events):
    header = {"schema": FLIGHT_SCHEMA, "reason": "test", "dumped_unix": 0.0,
              "recorded": len(events), "dropped": 0, "counts": {}}
    return [header] + [dict(e, seq=i + 1) for i, e in enumerate(events)]


def _series(series):
    return {"schema": SERIES_SCHEMA, "series": series,
            "interval_s": 0.5, "samples_taken": 10}


# ----------------------------------------------------------- classification

def test_classify_inputs():
    assert classify_input({"traceEvents": []}) == "merged-trace"
    assert classify_input({"schema": TRACE_SCHEMA, "events": []}) \
        == "trace-shard"
    assert classify_input(_series({})) == "series"
    assert classify_input({"schema": "repro.obs.manifest/1"}) == "manifest"
    assert classify_input(_flight([])) == "flight"
    assert classify_input({"schema": DIAGNOSIS_SCHEMA}) == "diagnosis"
    assert classify_input({"random": True}) == "unknown"
    assert classify_input([1, 2]) == "unknown"
    assert classify_input("text") == "unknown"


def test_load_input_json_and_jsonl(tmp_path):
    p = tmp_path / "shard.json"
    p.write_text(json.dumps({"schema": TRACE_SCHEMA, "events": []}))
    doc, kind, warnings = load_input(p)
    assert kind == "trace-shard" and warnings == []

    f = tmp_path / "flight.jsonl"
    f.write_text("\n".join(json.dumps(e) for e in _flight(
        [{"ts": 0.1, "kind": "loss", "path": 0}])))
    doc, kind, warnings = load_input(f)
    assert kind == "flight"
    assert len(doc) == 2


def test_torn_flight_dump_is_analyzed_and_reported(tmp_path):
    """A server killed mid-dump leaves a cut-off last line: both
    ``obs analyze`` and ``obs report`` read the events before it."""
    from repro.obs.report import render_file

    dump = tmp_path / "flight.jsonl"
    lines = [json.dumps(e) for e in _flight(
        [{"ts": 0.1, "kind": "loss", "path": 0}] * 2)]
    dump.write_text("\n".join(lines) + "\n" + lines[-1][:17])
    report = analyze_paths([dump])
    assert report["inputs"] == [{"path": str(dump), "kind": "flight"}]
    assert report["summary"]["flight_events"] == 2
    [finding] = _findings(report, "loss")
    assert "2" in finding["title"]
    out = render_file(dump)
    assert "(flight)" in out and "2 events" in out and "warning" not in out


def test_saved_events_document_reads_like_the_dump(tmp_path):
    """A saved ``/events`` document (one JSON object wrapping the events)
    and the JSONL dump of the same recorder read the same events."""
    from repro.obs import FlightRecorder
    from repro.obs.report import render_file

    fr = FlightRecorder()
    fr.record("loss", conn=1, path=0)
    fr.record("rto", conn=1, path=0)
    fr.record("conn_done", conn=1)
    saved = tmp_path / "events.json"
    saved.write_text(json.dumps(fr.snapshot()))
    dump = fr.dump(tmp_path / "flight.jsonl")

    for path in (saved, dump):
        records, kind, _ = load_input(path)
        assert kind == "flight"
        assert [r["kind"] for r in records[1:]] == ["loss", "rto", "conn_done"]
        assert records[0]["schema"] == FLIGHT_SCHEMA
        assert analyze_paths([path])["summary"]["flight_events"] == 3
        assert "flight recorder: 3 events" in render_file(path)


def test_headerless_flight_records_keep_every_event(tmp_path):
    path = tmp_path / "flight.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in _flight(
        [{"ts": 0.1, "kind": "loss", "path": 0}] * 2)[1:]) + "\n")
    records, kind, _ = load_input(path)
    assert kind == "flight" and records[0] == {}
    assert analyze_paths([path])["summary"]["flight_events"] == 2


# ---------------------------------------------------------------- detectors

def test_loss_detector_from_trace_and_flight():
    report = analyze(
        shards=[_shard_with(["serve.loss"] * 3)],
        flights=[_flight([{"ts": 0.1, "kind": "loss", "path": 0}] * 3)])
    [finding] = _findings(report, "loss")
    assert finding["severity"] == "warning"  # 6 >= 5
    assert "6" in finding["title"]
    types = {e["type"] for e in finding["evidence"]}
    assert types == {"span", "flight"}
    assert all("seq" in e for e in finding["evidence"]
               if e["type"] == "flight")


def test_loss_detector_info_below_threshold_and_absent_when_clean():
    report = analyze(shards=[_shard_with(["serve.loss"])])
    [finding] = _findings(report, "loss")
    assert finding["severity"] == "info"
    clean = analyze(shards=[_shard_with(["serve.other"])])
    assert not _findings(clean, "loss")


def test_rto_storm_critical_when_clustered():
    report = analyze(
        shards=[_shard_with(["serve.rto"] * RTO_STORM_COUNT, gap_s=1.0)])
    [finding] = _findings(report, "rto_storm")
    assert finding["severity"] == "critical"
    assert not _findings(report, "rto")


def test_rto_info_when_spread_out():
    report = analyze(
        shards=[_shard_with(["serve.rto"] * RTO_STORM_COUNT, gap_s=60.0)])
    [finding] = _findings(report, "rto")
    assert finding["severity"] == "info"
    assert not _findings(report, "rto_storm")


def test_cwnd_collapse_detected():
    report = analyze(series=[_series({
        "path0.cwnd": {"kind": "gauge", "points":
                       [[0.0, 2.0], [1.0, 20.0], [2.0, 3.0]]},
        "path1.cwnd": {"kind": "gauge", "points":
                       [[0.0, 10.0], [1.0, 12.0], [2.0, 11.0]]},
    })])
    [finding] = _findings(report, "cwnd_collapse")
    assert "path0.cwnd" in finding["title"]
    [ev] = finding["evidence"]
    assert ev["type"] == "series" and ev["value"] == 3.0 and ev["peak"] == 20.0


def test_cwnd_collapse_ignores_small_peaks():
    # A cwnd bouncing around below 4 segments is slow start, not collapse.
    report = analyze(series=[_series({
        "path0.cwnd": {"kind": "gauge", "points":
                       [[0.0, 3.0], [1.0, 1.0], [2.0, 3.0]]},
    })])
    assert not _findings(report, "cwnd_collapse")


def test_stale_gauge_detected():
    report = analyze(series=[_series({
        "path0.cwnd": {"kind": "gauge", "points": [[0.0, 1.0]],
                       "updated_unix": 1000.0},
        "path1.cwnd": {"kind": "gauge", "points": [[0.0, 1.0]],
                       "updated_unix": 1100.0},
    })])
    [finding] = _findings(report, "stale_gauge")
    assert "path0.cwnd" in finding["title"]
    assert finding["evidence"][0]["lag_s"] == 100.0


def test_stale_gauge_quiet_when_fresh():
    report = analyze(series=[_series({
        "path0.cwnd": {"kind": "gauge", "points": [], "updated_unix": 1000.0},
        "path1.cwnd": {"kind": "gauge", "points": [], "updated_unix": 1001.0},
    })])
    assert not _findings(report, "stale_gauge")


def test_energy_spike_detected():
    points = [[float(t), 1.0] for t in range(8)] + [[8.0, 9.0]]
    report = analyze(series=[_series({
        "path0.power_w": {"kind": "gauge", "points": points},
    })])
    [finding] = _findings(report, "energy_spike")
    assert finding["evidence"][0]["value"] == 9.0


def test_flight_failures_detected():
    report = analyze(flights=[_flight([
        {"ts": 1.0, "kind": "conn_dropped", "conn": 9, "reason": "idle"},
        {"ts": 2.0, "kind": "campaign_run_failed", "spec_hash": "ab",
         "error": "boom"},
    ])])
    [dropped] = _findings(report, "conn_dropped")
    assert dropped["severity"] == "warning"
    assert "idle" in dropped["detail"]
    [failed] = _findings(report, "run_failed")
    assert failed["severity"] == "critical"
    assert "boom" in failed["detail"]


def test_controller_comparison_from_spans():
    def conn_shard(controller, energy):
        tracer = Tracer()
        handle = tracer.start_span(
            "serve.connection", controller=controller, energy_j=energy,
            acked_segments=100, payload_bytes=1200)
        handle.finish()
        return tracer.shard_dict(controller)

    report = analyze(shards=[conn_shard("dts", 1.0), conn_shard("lia", 2.0)])
    assert set(report["controllers"]) == {"dts", "lia"}
    assert report["controllers"]["dts"]["joules_per_bit"] == \
        pytest.approx(1.0 / (100 * 1200 * 8))
    [cmp_finding] = _findings(report, "controller_comparison")
    assert "lia" in cmp_finding["title"] and "2.00x" in cmp_finding["title"]


def test_controller_stats_from_manifest():
    manifest = {"schema": "repro.obs.manifest/1", "annotations": {
        "connections": {"1": {"controller": "dts", "energy_j": 4.0,
                              "acked_segments": 50, "payload_bytes": 1200}}}}
    report = analyze(manifests=[manifest])
    assert report["controllers"]["dts"]["connections"] == 1


# ------------------------------------------------------------ critical paths

def test_critical_path_descends_longest_child():
    tracer = Tracer()
    root = tracer.start_span("fetch.transfer")
    short = tracer.start_span("fetch.connect", parent=root)
    long = tracer.start_span("serve.connection", parent=root)
    # Force durations without sleeping: records are plain dicts.
    short.finish()
    long.finish()
    root.finish()
    shard = tracer.shard_dict("p")
    for ev in shard["events"]:
        if ev["name"] == "serve.connection":
            ev["dur"] = 0.5
        elif ev["name"] == "fetch.connect":
            ev["dur"] = 0.1
        elif ev["name"] == "fetch.transfer":
            ev["dur"] = 0.7
    report = analyze(shards=[shard])
    [path] = report["critical_paths"]
    assert [s["name"] for s in path["steps"]] == \
        ["fetch.transfer", "serve.connection"]
    assert path["total_us"] == pytest.approx(0.7e6)


# ------------------------------------------------------------------- report

def test_report_is_schema_valid_and_sorted():
    report = analyze(
        shards=[_shard_with(["serve.loss"] * 5
                            + ["serve.rto"] * RTO_STORM_COUNT)],
        flights=[_flight([{"ts": 1.0, "kind": "conn_dropped",
                           "conn": 1, "reason": "idle"}])])
    assert validate_diagnosis(report) == []
    severities = [f["severity"] for f in report["findings"]]
    order = {"critical": 0, "warning": 1, "info": 2}
    assert severities == sorted(severities, key=order.__getitem__)
    assert report["summary"]["findings"] == len(report["findings"])
    by_sev = report["summary"]["by_severity"]
    assert sum(by_sev.values()) == len(report["findings"])
    json.dumps(report)


def test_validate_diagnosis_flags_problems():
    assert validate_diagnosis("nope") == ["diagnosis must be a JSON object"]
    problems = validate_diagnosis({"schema": "other"})
    assert any("schema" in p for p in problems)
    assert any("missing key" in p for p in problems)
    bad = analyze()
    bad["findings"] = [{"kind": "x"}]
    problems = validate_diagnosis(bad)
    assert any("missing 'severity'" in p for p in problems)
    bad["findings"] = [{"kind": "x", "severity": "fatal", "title": "t",
                        "detail": "d", "evidence": []}]
    assert any("bad severity" in p for p in validate_diagnosis(bad))


def test_analyze_paths_mixed_inputs(tmp_path):
    shard_path = tmp_path / "shard.json"
    shard_path.write_text(json.dumps(_shard_with(["serve.loss"] * 5)))
    flight_path = tmp_path / "flight.jsonl"
    flight_path.write_text("\n".join(
        json.dumps(e) for e in _flight([{"ts": 0.1, "kind": "loss"}])))
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"whatever": 1}))

    report = analyze_paths([shard_path, flight_path, stray])
    kinds = {i["path"]: i["kind"] for i in report["inputs"]}
    assert kinds[str(shard_path)] == "trace-shard"
    assert kinds[str(flight_path)] == "flight"
    assert kinds[str(stray)] == "unknown"
    [finding] = _findings(report, "loss")
    assert "6" in finding["title"]  # stray contributed nothing
    assert report["summary"]["flight_events"] == 1
