"""Distributed-trace identity, propagation primitives, and shard merging.

The tracer's cross-process story rests on three contracts pinned here:

* the **traceparent codec** is strict on parse and never raises — it is
  fed straight from the wire;
* span **parentage and depth are task-local** (a ContextVar stack), so
  concurrent asyncio tasks sharing one ambient tracer cannot corrupt
  each other's nesting;
* per-process **shards** (`repro.obs.trace/1`) merge into one
  Perfetto document with one process track per shard, clock-offset
  alignment, and orphan quarantine.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    NULL_TRACER,
    TRACE_SCHEMA,
    SpanHandle,
    Tracer,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.trace_merge import load_shard, merge_shards, write_merged

TID = "0af7651916cd43dd8448eb211c80319c"
SID = "b7ad6b7169203331"
GOOD = f"00-{TID}-{SID}-01"


# ----------------------------------------------------------------- codec

def test_format_parse_round_trip():
    assert parse_traceparent(format_traceparent(TID, SID)) == (TID, SID)


def test_new_trace_id_shape_and_uniqueness():
    a, b = new_trace_id(), new_trace_id()
    assert len(a) == 32 and set(a) <= set("0123456789abcdef")
    assert a != b


@pytest.mark.parametrize("bad", [
    None,
    17,
    b"00-" + TID.encode() + b"-" + SID.encode() + b"-01",
    "",
    "00",
    GOOD + "-extra",
    GOOD.replace("-", "_"),
    f"00-{TID.upper()}-{SID}-01",     # uppercase hex
    f"00-{TID[:-1]}-{SID}-01",        # short trace id
    f"00-{TID}-{SID}0-01",            # long span id
    f"00-{TID}-{SID}-1",              # short flags
    f"zz-{TID}-{SID}-01",             # non-hex version
    f"ff-{TID}-{SID}-01",             # forbidden version
    f"00-{'0' * 32}-{SID}-01",        # all-zero trace id
    f"00-{TID}-{'0' * 16}-01",        # all-zero span id
])
def test_parse_rejects_malformed(bad):
    assert parse_traceparent(bad) is None


@pytest.mark.parametrize("ok,expected", [
    (GOOD, (TID, SID)),
    (f"01-{TID}-{SID}-00", (TID, SID)),   # other versions/flags pass
])
def test_parse_accepts_valid(ok, expected):
    assert parse_traceparent(ok) == expected


# ------------------------------------------------------------- identity

def test_span_records_carry_identity():
    tracer = Tracer()
    with tracer.span("outer", a=1):
        tracer.instant("tick")
        with tracer.span("inner"):
            pass
    outer = next(r for r in tracer.records if r["name"] == "outer")
    inner = next(r for r in tracer.records if r["name"] == "inner")
    tick = next(r for r in tracer.records if r["name"] == "tick")
    assert outer["trace_id"] == tracer.trace_id
    assert outer["parent_span_id"] is None and outer["depth"] == 0
    assert inner["parent_span_id"] == outer["span_id"]
    assert inner["depth"] == 1
    assert tick["parent_span_id"] == outer["span_id"]
    assert len({outer["span_id"], inner["span_id"]}) == 2


def test_current_traceparent_tracks_innermost_span():
    tracer = Tracer()
    assert tracer.current_traceparent() is None
    with tracer.span("a") as a:
        assert tracer.current_traceparent() == \
            format_traceparent(tracer.trace_id, a.span_id)
        with tracer.span("b") as b:
            assert tracer.current_traceparent() == \
                format_traceparent(tracer.trace_id, b.span_id)
        assert tracer.current_traceparent() == \
            format_traceparent(tracer.trace_id, a.span_id)
    assert tracer.current_traceparent() is None


def test_remote_parent_joins_trace():
    tracer = Tracer(parent=GOOD)
    assert tracer.trace_id == TID
    with tracer.span("root"):
        tracer.instant("mark")
    root = tracer.records[-1]
    assert root["parent_span_id"] == SID
    mark = tracer.records[0]
    assert mark["parent_span_id"] == root["span_id"]


def test_invalid_remote_parent_starts_fresh_trace():
    tracer = Tracer(parent="garbage")
    assert parse_traceparent(
        format_traceparent(tracer.trace_id, "ab" * 8)) is not None
    with tracer.span("root"):
        pass
    assert tracer.records[0]["parent_span_id"] is None


def test_two_tracers_nest_independently_on_one_stack():
    # The stack is shared module state; spans of *other* tracers must
    # not contribute to this tracer's depth or parentage.
    t1, t2 = Tracer(), Tracer()
    with t1.span("one"):
        with t2.span("two"):
            pass
    two = t2.records[0]
    assert two["depth"] == 0
    assert two["parent_span_id"] is None
    assert two["trace_id"] == t2.trace_id


# --------------------------------------------- task-local depth (regression)

def test_concurrent_tasks_do_not_corrupt_depth():
    # Regression: with a plain instance attribute for depth, two tasks
    # interleaving spans on one ambient tracer would see each other's
    # increments — depths of 1/2 instead of 0/1 per task, and wrong
    # parentage. The ContextVar stack keeps each task's nesting private.
    tracer = Tracer()
    gate_a = asyncio.Event()
    gate_b = asyncio.Event()

    async def task_a():
        with tracer.span("a.outer"):
            gate_a.set()
            await gate_b.wait()
            with tracer.span("a.inner"):
                await asyncio.sleep(0)

    async def task_b():
        await gate_a.wait()
        with tracer.span("b.outer"):
            gate_b.set()
            with tracer.span("b.inner"):
                await asyncio.sleep(0)
            await asyncio.sleep(0)

    async def main():
        await asyncio.gather(task_a(), task_b())

    asyncio.run(main())
    spans = {r["name"]: r for r in tracer.records}
    assert spans["a.outer"]["depth"] == 0
    assert spans["b.outer"]["depth"] == 0
    assert spans["a.inner"]["depth"] == 1
    assert spans["b.inner"]["depth"] == 1
    assert spans["a.inner"]["parent_span_id"] == spans["a.outer"]["span_id"]
    assert spans["b.inner"]["parent_span_id"] == spans["b.outer"]["span_id"]
    # Cross-task contamination would make b.* children of a.outer.
    assert spans["b.outer"]["parent_span_id"] is None


def test_concurrent_tasks_see_their_own_traceparent():
    tracer = Tracer()
    seen = {}

    async def worker(name):
        with tracer.span(name) as span:
            await asyncio.sleep(0)
            seen[name] = (tracer.current_traceparent(), span.span_id)
            await asyncio.sleep(0)

    async def main():
        await asyncio.gather(worker("w1"), worker("w2"))

    asyncio.run(main())
    for name, (tp, span_id) in seen.items():
        assert tp == format_traceparent(tracer.trace_id, span_id), name


# ------------------------------------------------------------ detached spans

def test_detached_span_lifecycle():
    tracer = Tracer()
    handle = tracer.start_span("conn", conn=7)
    assert isinstance(handle, SpanHandle)
    assert tracer.current_traceparent() is None  # never on the stack
    handle.instant("loss", path=1)
    handle.finish(outcome="done")
    handle.finish(outcome="twice")  # idempotent: second call is a no-op
    kinds = [(r["type"], r["name"]) for r in tracer.records]
    assert kinds == [("instant", "loss"), ("span", "conn")]
    span = tracer.records[1]
    assert span["args"] == {"conn": 7, "outcome": "done"}
    assert tracer.records[0]["parent_span_id"] == span["span_id"]


def test_detached_span_parents_under_remote_traceparent():
    tracer = Tracer()
    handle = tracer.start_span("serve.connection", parent=GOOD)
    handle.finish()
    span = tracer.records[0]
    assert span["trace_id"] == TID          # joins the remote trace
    assert span["parent_span_id"] == SID
    assert handle.traceparent == format_traceparent(TID, span["span_id"])


def test_detached_span_nests_under_another_handle():
    tracer = Tracer()
    conn = tracer.start_span("serve.connection")
    sub = tracer.start_span("serve.subflow", parent=conn, path=0)
    sub.finish()
    conn.finish()
    sub_rec = tracer.records[0]
    assert sub_rec["parent_span_id"] == conn.span_id
    assert sub_rec["depth"] == 1


def test_detached_span_with_invalid_parent_is_root():
    tracer = Tracer()
    handle = tracer.start_span("conn", parent="not-a-traceparent")
    handle.finish()
    assert tracer.records[0]["parent_span_id"] is None
    assert tracer.records[0]["trace_id"] == tracer.trace_id


# ------------------------------------------------------------------ shards

def test_shard_dict_shape(tmp_path):
    tracer = Tracer()
    with tracer.span("work", n=3):
        tracer.instant("mark")
    shard = tracer.shard_dict("worker-x")
    assert shard["schema"] == TRACE_SCHEMA
    assert shard["trace_id"] == tracer.trace_id
    assert shard["process_name"] == "worker-x"
    assert shard["pid"] > 0
    assert shard["dropped"] == 0
    assert isinstance(shard["epoch_unix"], float)
    assert len(shard["events"]) == 2
    json.dumps(shard)  # JSON-serializable as exported

    path = tmp_path / "shard.json"
    assert tracer.export_shard(path, "worker-x") == 2
    assert load_shard(path)["process_name"] == "worker-x"


def test_load_shard_rejects_non_shards(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/1", "events": []}))
    with pytest.raises(ValueError):
        load_shard(path)
    path.write_text(json.dumps({"schema": TRACE_SCHEMA}))
    with pytest.raises(ValueError):
        load_shard(path)


def test_max_events_drops_and_counts(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_EVENTS", 2)
    tracer = Tracer()
    for i in range(5):
        tracer.instant("e", i=i)
    assert len(tracer.records) == 2
    assert tracer.dropped == 3
    assert tracer.shard_dict()["dropped"] == 3


# -------------------------------------------------------------- null tracer

def test_null_tracer_full_api_is_noop():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("x", a=1) as span:
        NULL_TRACER.instant("y")
    assert span is NULL_TRACER.span("z")  # one shared object
    handle = NULL_TRACER.start_span("conn", parent=GOOD)
    handle.instant("loss")
    handle.finish(outcome="done")
    assert handle.traceparent == ""
    assert handle.span_id == "" and handle.parent_span_id is None
    assert NULL_TRACER.current_traceparent() is None
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.records == ()


def test_null_tracer_does_not_touch_span_stack():
    tracer = Tracer()
    with tracer.span("real"):
        with NULL_TRACER.span("ghost"):
            with tracer.span("child"):
                pass
    child = next(r for r in tracer.records if r["name"] == "child")
    real = next(r for r in tracer.records if r["name"] == "real")
    assert child["parent_span_id"] == real["span_id"]
    assert child["depth"] == 1


# ------------------------------------------------------------------- merge

def _two_client_server_shards():
    client = Tracer()
    with client.span("fetch.transfer", n=1):
        tp = client.current_traceparent()
        server = Tracer()
        conn = server.start_span("serve.connection", parent=tp)
        sub = server.start_span("serve.subflow", parent=conn, path=0)
        sub.instant("serve.loss", path=0)
        sub.finish()
        conn.finish()
    return (client.shard_dict("client-proc"),
            server.shard_dict("server-proc"))


def test_merge_two_shards_two_process_tracks():
    doc, stats = merge_shards(_two_client_server_shards())
    assert stats.shards == 2
    assert stats.orphans == 0
    assert stats.processes == ["client-proc", "server-proc"]
    procs = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    assert len(procs) >= 2  # same OS pid, still two Perfetto tracks
    assert set(procs.values()) >= {"client-proc", "server-proc"}
    json.dumps(doc)


def test_merge_preserves_cross_process_parentage():
    doc, _ = merge_shards(_two_client_server_shards())
    spans = {e["args"]["span_id"]: e for e in doc["traceEvents"]
             if e.get("ph") == "X"}
    fetch = next(e for e in spans.values() if e["name"] == "fetch.transfer")
    conn = next(e for e in spans.values() if e["name"] == "serve.connection")
    sub = next(e for e in spans.values() if e["name"] == "serve.subflow")
    assert conn["args"]["parent_span_id"] == fetch["args"]["span_id"]
    assert sub["args"]["parent_span_id"] == conn["args"]["span_id"]
    assert conn["pid"] != fetch["pid"]
    # The cross-shard link renders as a flow arrow pair.
    flows = [e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")]
    assert len(flows) >= 2


def test_merge_quarantines_orphans():
    tracer = Tracer()
    with tracer.span("ok.root"):
        pass
    tracer._record({"type": "instant", "name": "lost.child", "ts": 0.001,
                    "depth": 1, "parent_span_id": "feedfacedeadbeef",
                    "trace_id": tracer.trace_id, "args": {}})
    doc, stats = merge_shards([tracer.shard_dict("proc")])
    assert stats.orphans == 1
    orphan_pid = 2  # one shard -> orphans land on pid N+1
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    assert "(orphans)" in names
    orphan = next(e for e in doc["traceEvents"]
                  if e.get("name") == "lost.child")
    assert orphan["pid"] == orphan_pid
    assert orphan["args"]["orphan"] is True
    assert orphan["args"]["source_process"] == "proc"


def test_merge_drop_orphans_removes_them():
    tracer = Tracer()
    with tracer.span("ok.root"):
        pass
    tracer._record({"type": "instant", "name": "lost.child", "ts": 0.001,
                    "depth": 1, "parent_span_id": "feedfacedeadbeef",
                    "trace_id": tracer.trace_id, "args": {}})
    doc, stats = merge_shards([tracer.shard_dict("proc")],
                              drop_orphans=True)
    assert stats.orphans == 1  # still counted
    assert not any(e.get("name") == "lost.child"
                   for e in doc["traceEvents"])
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    assert "(orphans)" not in names


def test_merge_aligns_clock_offsets():
    a, b = Tracer(), Tracer()
    a.instant("a.mark")
    b.instant("b.mark")
    sa, sb = a.shard_dict("a"), b.shard_dict("b")
    # Pretend shard b's process clock started 2 wall-clock seconds later.
    sb["epoch_unix"] = sa["epoch_unix"] + 2.0
    doc, _ = merge_shards([sa, sb])
    ts = {e["name"]: e["ts"] for e in doc["traceEvents"]
          if e.get("ph") == "i"}
    # b's event is shifted by the epoch delta onto a's axis.
    assert ts["b.mark"] - ts["a.mark"] == pytest.approx(2e6, abs=5e4)
    assert doc["otherData"]["ref_epoch_unix"] == sa["epoch_unix"]


def test_merge_roots_are_never_orphans():
    tracer = Tracer()
    with tracer.span("root.only"):
        pass
    _, stats = merge_shards([tracer.shard_dict("p")])
    assert stats.orphans == 0


def test_merge_empty_shard_list_raises():
    with pytest.raises(ValueError):
        merge_shards([])


def test_write_merged_round_trip(tmp_path):
    sa, sb = _two_client_server_shards()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(sa))
    pb.write_text(json.dumps(sb))
    out = tmp_path / "merged.json"
    stats = write_merged([pa, pb], out)
    assert stats.events == len(sa["events"]) + len(sb["events"])
    doc = json.loads(out.read_text())
    assert doc["otherData"]["merged_shards"] == 2
    assert stats.processes == ["client-proc", "server-proc"]


def test_campaign_trace_dir_holds_shards_and_their_merge(tmp_path, capsys):
    """`campaign --trace DIR` writes one shard per run plus the driver's,
    and a merged timeline of exactly those files."""
    from repro import cli

    out = tmp_path / "tr"
    assert cli.main(["campaign", "fig12", "--jobs", "1", "--subflows", "1",
                     "--seeds", "1", "--duration", "0.4", "--dt", "0.01",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace", str(out)]) == 0
    runs = sorted(out.glob("run-*.trace.json"))
    assert runs
    driver = load_shard(out / "driver.trace.json")
    assert all(load_shard(p)["trace_id"] == driver["trace_id"] for p in runs)
    merged = json.loads((out / "merged.trace.json").read_text())
    assert merged["otherData"]["merged_shards"] == len(runs) + 1
    assert merged["otherData"]["orphans"] == 0
