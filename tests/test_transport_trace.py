"""End-to-end distributed tracing through the real UDP transport.

The acceptance contract of the tracing feature: a lossy fetch against a
tracing server produces one trace shard per side, the shards merge into
a single Perfetto-loadable document, and in that document the server's
connection span is a **child of the client's fetch span** (and subflow
spans children of the connection span) — then `obs analyze` turns the
same run into a diagnosis with a loss finding carrying evidence.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.analyze import analyze, validate_diagnosis
from repro.obs.tracing import TRACE_SCHEMA
from repro.obs.trace_merge import merge_shards
from repro.transport.client import loopback_selftest

TOTAL_BYTES = 256 * 1024


@pytest.fixture(scope="module")
def traced_selftest():
    """One lossy traced loopback self-test shared by the assertions."""
    return asyncio.run(loopback_selftest(
        controller="dts", subflows=2, total_bytes=TOTAL_BYTES,
        loss_rate=0.05, loss_seed=3, timeout=60.0, trace=True))


def _spans(shard):
    return [e for e in shard["events"] if e["type"] == "span"]


def test_selftest_produces_both_shards(traced_selftest):
    r = traced_selftest
    assert r.fetch.bytes_received >= TOTAL_BYTES
    for shard in (r.client_shard, r.server_shard):
        assert shard is not None
        assert shard["schema"] == TRACE_SCHEMA
        assert shard["events"]
    assert r.client_shard["process_name"] == "loopback-fetch"
    assert r.server_shard["process_name"] == "loopback-serve"


def test_server_spans_join_the_client_trace(traced_selftest):
    r = traced_selftest
    client_trace = r.client_shard["trace_id"]
    # The server tracer keeps its own trace_id, but every event it
    # recorded for this connection rides the client's trace.
    conn = next(e for e in _spans(r.server_shard)
                if e["name"] == "serve.connection")
    assert conn["trace_id"] == client_trace


def test_cross_process_parentage(traced_selftest):
    r = traced_selftest
    fetch = next(e for e in _spans(r.client_shard)
                 if e["name"] == "fetch.transfer")
    conn = next(e for e in _spans(r.server_shard)
                if e["name"] == "serve.connection")
    subflows = [e for e in _spans(r.server_shard)
                if e["name"] == "serve.subflow"]
    assert conn["parent_span_id"] == fetch["span_id"]
    assert len(subflows) == 2
    for sub in subflows:
        assert sub["parent_span_id"] == conn["span_id"]
    assert conn["args"]["controller"] == "dts"
    assert conn["args"]["outcome"] == "done"
    assert conn["args"]["energy_j"] > 0


def test_merged_trace_is_one_timeline(traced_selftest):
    r = traced_selftest
    doc, stats = merge_shards([r.client_shard, r.server_shard])
    assert stats.orphans == 0
    assert stats.processes == ["loopback-fetch", "loopback-serve"]
    procs = {e["pid"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    assert len(procs) == 2
    spans = {e["args"]["span_id"]: e for e in doc["traceEvents"]
             if e.get("ph") == "X"}
    fetch = next(e for e in spans.values() if e["name"] == "fetch.transfer")
    conn = next(e for e in spans.values() if e["name"] == "serve.connection")
    assert conn["args"]["parent_span_id"] == fetch["args"]["span_id"]
    assert conn["pid"] != fetch["pid"]
    # Perfetto-loadable: plain JSON with the traceEvents array shape.
    json.dumps(doc)


def test_analyze_finds_the_injected_loss(traced_selftest):
    r = traced_selftest
    doc, _ = merge_shards([r.client_shard, r.server_shard])
    report = analyze(traces=[doc])
    assert validate_diagnosis(report) == []
    loss = [f for f in report["findings"] if f["kind"] == "loss"]
    assert loss, [f["kind"] for f in report["findings"]]
    assert loss[0]["evidence"], "loss finding must carry evidence pointers"
    assert all(e["type"] == "span" for e in loss[0]["evidence"])
    # The critical path crosses from the client into the server.
    [path] = [p for p in report["critical_paths"]
              if p["root"] == "fetch.transfer"]
    names = [s["name"] for s in path["steps"]]
    assert "serve.connection" in names
    # Controller attribution comes straight from the connection span.
    assert report["controllers"]["dts"]["connections"] == 1
    assert report["controllers"]["dts"]["joules_per_bit"] > 0


def test_untraced_selftest_has_no_shards():
    r = asyncio.run(loopback_selftest(
        controller="dts", subflows=1, total_bytes=64 * 1024,
        loss_rate=0.0, timeout=60.0))
    assert r.client_shard is None
    assert r.server_shard is None
    d = r.to_dict()
    assert "client_shard" not in d and "server_shard" not in d


def test_selftest_cli_writes_both_shards(tmp_path, capsys):
    """`fetch --selftest --trace F` writes the client shard to F and the
    server shard beside it; both load as shards and merge orphan-free."""
    from repro import cli
    from repro.obs.trace_merge import load_shard

    path = tmp_path / "fetch.shard.json"
    assert cli.main(["fetch", "--selftest", "--subflows", "2",
                     "--bytes", "65536", "--timeout", "60",
                     "--trace", str(path)]) == 0
    client = load_shard(path)
    server = load_shard(tmp_path / "fetch.shard.server.json")
    assert (client["process_name"], server["process_name"]) == (
        "loopback-fetch", "loopback-serve")
    _, stats = merge_shards([client, server])
    assert stats.orphans == 0
