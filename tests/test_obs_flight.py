"""Flight recorder tests: ring semantics, triggers, dumps, ambient hook."""

import json

import pytest

import repro.obs as obs
from repro.obs import FlightRecorder
from repro.obs.flight import FLIGHT_SCHEMA


class FakeClock:
    def __init__(self, t0=1000.0):
        self.t = t0

    def __call__(self):
        return self.t


def test_record_assigns_monotonic_seq_and_counts_kinds():
    fr = FlightRecorder(clock=FakeClock())
    a = fr.record("loss", path=0)
    b = fr.record("rto", path=1)
    c = fr.record("loss", path=0)
    assert (a.seq, b.seq, c.seq) == (1, 2, 3)
    assert fr.last_seq == 3
    assert fr.counts == {"loss": 2, "rto": 1}
    assert fr.recorded == 3


def test_ring_capacity_drops_oldest():
    fr = FlightRecorder(capacity=2, clock=FakeClock())
    for i in range(5):
        fr.record("e", i=i)
    events = fr.events()
    assert [e.seq for e in events] == [4, 5]
    assert fr.dropped == 3


def test_events_since_and_kind_filter_and_limit():
    fr = FlightRecorder(clock=FakeClock())
    for i in range(6):
        fr.record("loss" if i % 2 == 0 else "rto", i=i)
    assert [e.seq for e in fr.events(since=4)] == [5, 6]
    assert all(e.kind == "rto" for e in fr.events(kinds={"rto"}))
    assert [e.seq for e in fr.events(limit=2)] == [5, 6]


def test_snapshot_document_shape():
    fr = FlightRecorder(clock=FakeClock())
    fr.record("loss", conn=7)
    doc = fr.snapshot()
    assert doc["schema"] == FLIGHT_SCHEMA
    assert doc["last_seq"] == 1
    assert doc["counts"] == {"loss": 1}
    assert doc["events"][0]["kind"] == "loss"
    assert doc["events"][0]["conn"] == 7


def test_dump_writes_header_then_events(tmp_path):
    fr = FlightRecorder(clock=FakeClock())
    fr.record("loss", conn=1, path=0)
    fr.record("rto", conn=1, path=1)
    out = fr.dump(tmp_path / "flight.jsonl", reason="test")
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["schema"] == FLIGHT_SCHEMA
    assert lines[0]["reason"] == "test"
    assert lines[0]["counts"] == {"loss": 1, "rto": 1}
    assert [rec["kind"] for rec in lines[1:]] == ["loss", "rto"]
    assert fr.dumps == 1


def test_dump_without_path_raises():
    with pytest.raises(ValueError):
        FlightRecorder().dump()


def test_record_event_is_noop_without_session():
    assert obs.record_event("loss", path=0) is None


def test_record_event_routes_to_ambient_flight_recorder():
    with obs.session() as s:
        assert obs.record_event("loss") is None  # no recorder attached yet
        s.attach_flight()
        event = obs.record_event("loss", path=3)
        assert event is not None
        assert s.flight.counts == {"loss": 1}
        assert s.flight.events()[0].fields == {"path": 3}


def test_attach_flight_is_get_or_create():
    s = obs.ObsSession()
    first = s.attach_flight(capacity=16)
    assert s.attach_flight() is first
