"""repro.obs tests: registry semantics, tracing, manifests, CLI wiring."""

import json
import tracemalloc

import pytest

import repro.obs as obs
from repro.obs import (
    MANIFEST_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    RunManifest,
    Tracer,
    geometric_buckets,
)


# ----------------------------------------------------------------- registry

def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = reg.gauge("g")
    g.set(3.5)
    g.set(-1.0)
    assert g.value == -1.0
    assert len(reg) == 2


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_remove_unregisters_one_name():
    reg = MetricsRegistry()
    old = reg.gauge("conn.cwnd")
    old.set(3.0)
    reg.counter("hellos").inc()
    assert reg.remove("conn.cwnd") is True
    assert reg.remove("conn.cwnd") is False
    assert reg.names() == ["hellos"] and len(reg) == 1
    assert "conn.cwnd" not in reg.snapshot()
    # The name is free again: a fresh instrument, of any kind.
    assert reg.counter("conn.cwnd") is not old
    assert reg.get("conn.cwnd").value == 0


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_geometric_buckets():
    assert list(geometric_buckets(1.0, 8.0)) == [1.0, 2.0, 4.0, 8.0]
    assert list(geometric_buckets(1.0, 100.0, 10.0)) == [1.0, 10.0, 100.0]


def test_histogram_bucketing_and_stats():
    h = Histogram("h", buckets=[1.0, 2.0, 4.0])
    for v in (0.5, 1.0, 3.0, 100.0):
        h.observe(v)
    snap = h.snapshot_value()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(104.5)
    assert snap["min"] == 0.5 and snap["max"] == 100.0
    # bounds are upper-inclusive; the 4th cell is the overflow bucket
    assert snap["counts"] == [2, 0, 1, 1]
    assert len(snap["counts"]) == len(snap["buckets"]) + 1


def test_snapshot_is_json_serializable_and_sorted():
    reg = MetricsRegistry()
    reg.counter("b").inc()
    reg.gauge("a").set(1)
    reg.histogram("c").observe(2)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    json.dumps(snap)


def test_session_manifest_round_trips_the_registry_snapshot(tmp_path):
    """A run's metrics are written once, as the manifest's snapshot."""
    with obs.session() as s:
        s.registry.counter("runs").inc(3)
        s.registry.histogram("lat").observe(0.5)
    path = s.manifest().write(tmp_path / "run.manifest.json")
    metrics = RunManifest.load(path).metrics
    assert metrics == s.registry.snapshot()
    assert metrics["runs"] == 3
    assert metrics["lat"]["count"] == 1


# ------------------------------------------------------------------ tracing

def test_span_nesting_depths():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            tr.instant("tick", n=1)
    names = [(r["name"], r["type"], r["depth"]) for r in tr.records]
    # spans are recorded at exit: innermost first
    assert ("tick", "instant", 2) in names
    assert ("inner", "span", 1) in names
    assert ("outer", "span", 0) in names
    outer = next(r for r in tr.records if r["name"] == "outer")
    inner = next(r for r in tr.records if r["name"] == "inner")
    assert outer["dur"] >= inner["dur"] >= 0


def test_span_records_args_and_survives_exceptions():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.span("job", attempt=2):
            raise RuntimeError("boom")
    (rec,) = tr.records
    assert rec["name"] == "job" and rec["args"] == {"attempt": 2}


def test_tracer_caps_events(monkeypatch):
    monkeypatch.setattr(obs.tracing, "MAX_EVENTS", 3)
    tr = Tracer()
    for i in range(10):
        tr.instant("e", i=i)
    assert len(tr.records) == 3
    assert tr.dropped == 7


def test_chrome_export_parses_back(tmp_path):
    """Perfetto JSON is a merge of one shard: it parses back with every
    span as an ``X`` event, every instant as ``i``, track metadata as
    ``M``, and the recorded args carried over."""
    from repro.obs.trace_merge import merge_shards

    tr = Tracer()
    with tr.span("sim.run", until=1.0):
        tr.instant("sim.dispatch", queue_depth=5)
        with tr.span("sim.step"):
            pass
    doc, _ = merge_shards([tr.shard_dict("proc")])
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"X", "i", "M"} <= phases
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"sim.run", "sim.step"}
    for e in complete:
        assert e["dur"] >= 0 and e["ts"] >= 0
    run = next(e for e in complete if e["name"] == "sim.run")
    assert run["args"]["until"] == 1.0
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["s"] == "t"
    assert instant["args"]["queue_depth"] == 5
    assert instant["args"]["parent_span_id"] == run["args"]["span_id"]


def test_write_shard_round_trips(tmp_path):
    from repro.obs.trace_merge import load_shard, write_shard

    tr = Tracer()
    with tr.span("a"):
        tr.instant("b")
    shard = tr.shard_dict("p")
    path = write_shard(tmp_path / "sub" / "t.shard.json", shard)
    assert load_shard(path) == shard
    assert {e["type"] for e in shard["events"]} == {"span", "instant"}


def test_null_tracer_is_allocation_free():
    # Every span is the same object and nothing is retained.
    s1 = NULL_TRACER.span("x", a=1)
    s2 = NULL_TRACER.span("y")
    assert s1 is s2
    with s1:
        pass
    assert NULL_TRACER.instant("z") is None
    assert not NULL_TRACER.enabled

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for i in range(1000):
        with NULL_TRACER.span("hot", i=i):
            NULL_TRACER.instant("tick", i=i)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = sum(s.size_diff for s in after.compare_to(before, "lineno")
                if s.size_diff > 0)
    assert grown < 16 * 1024  # no per-iteration retention


# ----------------------------------------------------------------- sessions

def test_session_is_ambient_and_scoped():
    assert obs.active_session() is None
    with obs.session(trace=True, label="t") as s:
        assert obs.active_session() is s
        assert obs.current_tracer() is s.tracer
        assert s.tracer.enabled
        with pytest.raises(RuntimeError):
            with obs.session():
                pass
    assert obs.active_session() is None
    assert obs.current_tracer() is NULL_TRACER


def test_engines_share_session_registry():
    from repro.net.events import Simulator

    with obs.session() as s:
        sim = Simulator(seed=1)
        sim.schedule(0.0, lambda: None)
        sim.run()
    assert sim.metrics is s.registry
    assert s.registry.snapshot()["engine.events_processed"] == 1
    assert sim.events_processed == 1  # compat property reads the registry

    # Outside a session: a private registry per engine.
    sim2 = Simulator(seed=1)
    assert sim2.metrics is not s.registry


def test_annotate_without_session_is_noop():
    obs.annotate(seed=1)  # must not raise
    with obs.session() as s:
        obs.annotate(seed=7)
    assert s.annotations["seed"] == 7


# ---------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    m = RunManifest.capture(label="t", spec_hash="ab" * 32, seed=3,
                            metrics={"engine.steps_taken": 40},
                            annotations={"duration": 1.0})
    path = tmp_path / "run.manifest.json"
    m.write(path)
    again = RunManifest.load(path)
    assert again == m
    assert again.schema == MANIFEST_SCHEMA
    assert again.seed == 3
    assert again.metrics["engine.steps_taken"] == 40


def test_manifest_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError):
        RunManifest.load(path)


def test_campaign_writes_manifest_next_to_cache_entry(tmp_path):
    from repro.campaign import CampaignExecutor, ResultCache, RunSpec

    cache = ResultCache(tmp_path)
    spec = RunSpec(topology="bcube", duration=0.4, dt=0.01, seed=1)
    (outcome,) = CampaignExecutor(jobs=1, cache=cache).run([spec])
    assert outcome.ok
    assert "obs" in outcome.payload
    assert outcome.metrics["steps_taken"] == int(
        outcome.payload["obs"]["engine.steps_taken"])
    entry = cache.path_for(spec)
    manifest = RunManifest.load(entry.with_name(entry.stem + ".manifest.json"))
    assert manifest.spec_hash == spec.content_hash()
    assert manifest.seed == 1
    assert cache.size() == 1  # the manifest is not a cache entry


# ---------------------------------------------------------------------- CLI

def test_fig08_trace_cli_regression(tmp_path, capsys, monkeypatch):
    """`repro fig08 --trace F` writes a shard and its manifest; `obs
    merge-trace` turns the shard into Perfetto JSON; `obs report` and
    `obs analyze` read both."""
    from repro import cli
    from repro.experiments import fig08_trace
    from repro.obs.trace_merge import load_shard

    real_run = fig08_trace.run
    monkeypatch.setattr(fig08_trace, "run",
                        lambda **kw: real_run(duration=3.0, seed=3,
                                              bin_width=1.0))
    trace = tmp_path / "fig08.shard.json"
    rc = cli.main(["fig08", "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig08 done" in out

    shard = load_shard(trace)
    names = {e["name"] for e in shard["events"]}
    assert {"figure.fig08", "sim.run", "energy.sample"} <= names

    # The registry snapshot --metrics used to write lives in the manifest.
    manifest = RunManifest.load(str(trace) + ".manifest.json")
    assert manifest.annotations["seed"] == 3   # fig08 annotates its params
    assert manifest.metrics["engine.events_processed"] > 0
    assert manifest.metrics["mptcp.acks"] > 0
    assert "dts.epsilon" in manifest.metrics  # the DTS leg's Eq. (5) epsilons

    perfetto = tmp_path / "fig08.perfetto.json"
    assert cli.main(["obs", "merge-trace", str(trace), "-o", str(perfetto)]) == 0
    doc = json.loads(perfetto.read_text())
    drawn = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
    assert len(drawn) == len(shard["events"])
    capsys.readouterr()

    rc = cli.main(["obs", "report", str(trace), str(perfetto),
                   str(trace) + ".manifest.json"])
    assert rc == 0
    report = capsys.readouterr().out
    assert "trace-shard" in report
    assert "merged-trace" in report
    assert "engine.events_processed" in report
    assert "manifest" in report
    assert cli.main(["obs", "analyze", str(trace), str(perfetto)]) == 0
    diagnosis = capsys.readouterr().out
    assert f"{2 * len(shard['events'])} trace events" in diagnosis


def test_fig_metrics_flag_is_gone(capsys):
    from repro import cli

    with pytest.raises(SystemExit):
        cli.main(["fig08", "--metrics", "m.jsonl"])
    assert "--metrics" in capsys.readouterr().err


def test_obs_report_rejects_garbage(tmp_path, capsys):
    from repro import cli

    bad = tmp_path / "bad.bin"
    bad.write_text("not json at all")
    assert cli.main(["obs", "report", str(bad)]) == 2


@pytest.mark.parametrize("command", ["report", "analyze"])
@pytest.mark.parametrize("doc", [
    {"schema": "repro.obs.series/1", "series": None},
    {"schema": "repro.obs.trace/1",
     "events": [{"type": "span", "ts": 1, "dur": None, "span_id": "a"}]},
    {"schema": "repro.obs.flight/1", "events": None},
    {"schema": "repro.bench/1"},
], ids=["series-null", "span-unnamed", "flight-events-null", "bench-no-cases"])
def test_obs_rejects_schema_tagged_document_missing_a_field(
        tmp_path, capsys, command, doc):
    """A tagged document whose fields the renderer or the detectors read
    are missing or null is one ``error:`` line naming the file, exit 2."""
    from repro import cli

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["obs", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 1


def test_obs_report_skips_empty_file_and_renders_rest(tmp_path, capsys):
    """An empty artifact is skipped with a notice; other files still render."""
    from repro import cli

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    good = RunManifest.capture(label="t", metrics={"ok.runs": 2}).write(
        tmp_path / "good.manifest.json")

    assert cli.main(["obs", "report", str(empty), str(good)]) == 0
    out = capsys.readouterr().out
    assert "(empty)" in out and "skipped" in out
    assert "ok.runs" in out  # the healthy file still summarized


def test_obs_report_tolerates_truncated_jsonl(tmp_path, capsys):
    """A truncated tail (killed run) keeps the parseable records.

    A newline-*terminated* garbage line is warned about; the torn
    trailing line is a concurrent append in flight and skipped silently
    (tests/test_obs_tail.py pins the split itself).
    """
    from repro import cli

    path = tmp_path / "trunc.jsonl"
    path.write_text(
        json.dumps({"ts": 1.0, "event": "run_started"}) + "\n"
        + json.dumps({"ts": 2.0, "event": "run_completed", "wall_s": 1.0})
        + "\n")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")  # a real malformed line
        fh.write('{"ts": 3.0, "event": "run_sta')  # truncated mid-write

    assert cli.main(["obs", "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "run_started" in out and "run_completed" in out
    assert "skipped 1 malformed line" in out  # garbage, not the torn tail


# -------------------------------------------------------------- percentiles

def _pcts(h, *ps):
    """A live histogram's interpolated percentiles, read as the series
    recorder samples them."""
    from repro.obs.metrics import percentiles_from_counts

    return percentiles_from_counts(h.buckets, h.counts, h.minimum, h.maximum, ps)


def test_histogram_percentiles_interpolate_within_buckets():
    h = Histogram("h", buckets=(10.0, 20.0, 30.0))
    for v in (10.0, 12.0, 14.0, 16.0, 18.0,    # second bucket (10, 20]
              22.0, 24.0, 26.0, 28.0, 30.0):   # third bucket (20, 30]
        h.observe(v)
    p50, p95 = _pcts(h, 50, 95)
    # Half the mass sits in (10, 20], so p50 lands at that bucket's top.
    assert 18.0 <= p50 <= 21.0
    assert 28.0 <= p95 <= 30.0
    assert _pcts(h, 0)[0] == pytest.approx(10.0)   # clamped to observed min
    assert _pcts(h, 100)[0] == pytest.approx(30.0)  # ... and max


def test_histogram_percentiles_clamp_single_bucket_to_min_max():
    h = Histogram("h", buckets=(1000.0,))
    for v in (5.0, 6.0, 7.0):
        h.observe(v)
    p50 = _pcts(h, 50)[0]
    assert 5.0 <= p50 <= 7.0  # not dragged to the 1000.0 bucket bound


def test_histogram_percentiles_empty_and_invalid():
    h = Histogram("h")
    assert _pcts(h, 50, 99) == [0.0, 0.0]
    h.observe(1.0)
    with pytest.raises(ValueError):
        _pcts(h, 101)
    with pytest.raises(ValueError):
        _pcts(h, -1)


def test_percentiles_from_snapshot_record_match_live_histogram():
    from repro.obs.metrics import percentiles_from_counts

    h = Histogram("h", buckets=geometric_buckets(1.0, 64.0))
    for v in range(1, 50):
        h.observe(float(v))
    snap = h.snapshot_value()
    from_snapshot = percentiles_from_counts(
        snap["buckets"], snap["counts"], snap["min"], snap["max"], (50, 95))
    assert from_snapshot == _pcts(h, 50, 95)


def test_obs_report_metrics_table_shows_percentiles(tmp_path, capsys):
    from repro import cli

    reg = MetricsRegistry()
    hist = reg.histogram("lat", buckets=geometric_buckets(0.001, 8.0))
    for v in (0.01, 0.02, 0.04, 0.3, 2.0):
        hist.observe(v)
    path = RunManifest.capture(label="t", metrics=reg.snapshot()).write(
        tmp_path / "m.manifest.json")
    assert cli.main(["obs", "report", str(path)]) == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if "p50" in line)
    assert header.split() == ["metric", "count", "value/mean", "min", "max",
                              "p50", "p95", "p99"]
    row = next(line for line in out.splitlines()
               if line.split()[:1] == ["lat"])
    cells = [float(c) for c in row.split()[1:]]
    assert cells[0] == 5 and cells[2:4] == [0.01, 2.0]
    assert cells[4:] == pytest.approx(_pcts(hist, 50, 95, 99), abs=5e-4)


def test_manifest_captures_cpu_count():
    m = RunManifest.capture(label="t")
    assert isinstance(m.cpu_count, int) and m.cpu_count >= 1
    # Pre-bench manifests (no cpu_count field) still load.
    data = m.to_json_dict()
    del data["cpu_count"]
    again = RunManifest.from_json_dict(data)
    assert again.cpu_count is None


def test_ambient_session_is_task_local():
    """Two concurrent asyncio tasks each get their own ambient session.

    The ambient-session slot is a ContextVar, so ``obs.session()`` in one
    task must be invisible to the other — the property the real UDP
    transport relies on when serve and fetch share one event loop.
    """
    import asyncio

    async def worker(label, started, release):
        with obs.session(label=label) as s:
            s.registry.counter(f"{label}.n").inc()
            started.set()
            await release.wait()
            active = obs.active_session()
            assert active is s
            assert active.label == label
            return sorted(active.registry.snapshot())

    async def scenario():
        a_started, b_started = asyncio.Event(), asyncio.Event()
        release = asyncio.Event()
        task_a = asyncio.create_task(worker("iso-a", a_started, release))
        task_b = asyncio.create_task(worker("iso-b", b_started, release))
        # Both sessions are open simultaneously before either closes.
        await asyncio.gather(a_started.wait(), b_started.wait())
        assert obs.active_session() is None  # parent context untouched
        release.set()
        return await asyncio.gather(task_a, task_b)

    counters_a, counters_b = asyncio.run(scenario())
    assert counters_a == ["iso-a.n"]
    assert counters_b == ["iso-b.n"]
    assert obs.active_session() is None
