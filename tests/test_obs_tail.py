"""Tolerant JSONL reading: concurrent appends, tailing, report wiring."""

import json

from repro.obs.report import render_file
from repro.obs.tail import JsonlTailer, split_jsonl


# --------------------------------------------------------------- split_jsonl

def test_split_jsonl_parses_complete_lines():
    records, bad, partial = split_jsonl(b'{"a": 1}\n{"b": 2}\n')
    assert records == [{"a": 1}, {"b": 2}]
    assert bad == []
    assert partial is False


def test_partial_trailing_line_is_skipped_silently():
    # A concurrent writer was caught mid-append: no newline, no parse.
    records, bad, partial = split_jsonl(b'{"a": 1}\n{"b": ')
    assert records == [{"a": 1}]
    assert bad == []
    assert partial is True


def test_interior_malformed_line_is_reported():
    records, bad, partial = split_jsonl(
        b'{"a": 1}\nnot json\n{"b": 2}\n{"c": "\xff"}\n')
    assert records == [{"a": 1}, {"b": 2}]
    assert bad == [2, 4]  # not JSON; not UTF-8
    assert partial is False


def test_newline_terminated_garbage_tail_is_bad_not_partial():
    records, bad, partial = split_jsonl(b'{"a": 1}\ngarbage\n')
    assert records == [{"a": 1}]
    assert bad == [2]
    assert partial is False


# --------------------------------------------------------------- JsonlTailer

def test_tailer_returns_only_newly_appended_records(tmp_path):
    path = tmp_path / "log.jsonl"
    tailer = JsonlTailer(path)
    assert tailer.poll() == []  # file may not exist yet
    path.write_text('{"n": 1}\n')
    assert tailer.poll() == [{"n": 1}]
    with open(path, "a") as fh:
        fh.write('{"n": 2}\n{"n": 3}\n')
    assert tailer.poll() == [{"n": 2}, {"n": 3}]
    assert tailer.poll() == []
    assert tailer.records_read == 3


def test_tailer_carries_partial_line_until_newline_arrives(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": ')
    tailer = JsonlTailer(path)
    assert tailer.poll() == [{"n": 1}]  # the torn tail is held back
    with open(path, "a") as fh:
        fh.write('2}\n')
    assert tailer.poll() == [{"n": 2}]
    assert tailer.bad_lines == 0


def test_tailer_resets_on_truncation(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": 2}\n')
    tailer = JsonlTailer(path)
    tailer.poll()
    path.write_text('{"n": 9}\n')  # rotated: smaller than the old offset
    assert tailer.poll() == [{"n": 9}]


def test_tailer_counts_malformed_interior_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\nnope\n[1, 2]\n{"n": "\xff"}\n{"n": 2}\n')
    tailer = JsonlTailer(path)
    assert tailer.poll() == [{"n": 1}, {"n": 2}]
    assert tailer.bad_lines == 3  # not JSON; not an object; not UTF-8


# ----------------------------------------------------- obs report tolerance

def test_report_tolerates_partial_trailing_line(tmp_path):
    # `obs report` on a log being written right now must not raise, and a
    # line that is not UTF-8 is skipped like any malformed line.
    path = tmp_path / "telemetry.jsonl"
    path.write_bytes(
        json.dumps({"ts": 1.0, "event": "run_started", "seed": 1}).encode()
        + b'\n{"ts": 1.5, "event": "\xff"}\n'
        + b'{"ts": 2.0, "event": "run_co')
    out = render_file(path)
    assert "run_started" in out
    assert "skipped 1 malformed line(s): 2" in out


def test_report_on_only_a_partial_line_warns_not_raises(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    path.write_text('{"ts": 1.0, "event"')
    out = render_file(path)
    assert "partial" in out.lower()


def test_report_renders_flight_dump(tmp_path):
    from repro.obs import FlightRecorder

    fr = FlightRecorder()
    fr.record("loss", conn=1, path=0)
    fr.record("loss", conn=1, path=1)
    fr.record("rto", conn=1, path=0)
    path = fr.dump(tmp_path / "flight.jsonl", reason="test")
    out = render_file(path)
    assert "flight" in out.lower()
    assert "loss" in out
    assert "rto" in out
