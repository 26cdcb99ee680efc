"""Cross-process metrics merging: the campaign worker roll-up rule.

Counters **sum**, gauges **last-write-win**, histogram counts **add** —
the semantics `MetricsRegistry.merge_snapshot` applies when worker
``"obs"`` payloads fold into a parent registry.
"""

import pytest

from repro.obs import MetricsRegistry


def _worker_snapshot(packets, cwnd, latencies):
    reg = MetricsRegistry()
    reg.counter("net.packets").inc(packets)
    reg.gauge("cwnd").set(cwnd)
    h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in latencies:
        h.observe(v)
    return reg.snapshot()


def test_counters_sum_across_processes():
    parent = MetricsRegistry()
    parent.counter("net.packets").inc(5)
    parent.merge_snapshot(_worker_snapshot(10, 1.0, []),
                          kinds={"cwnd": "gauge"})
    parent.merge_snapshot(_worker_snapshot(7, 2.0, []),
                          kinds={"cwnd": "gauge"})
    assert parent.counter("net.packets").value == 22


def test_gauges_last_write_wins():
    parent = MetricsRegistry()
    parent.gauge("cwnd").set(3.0)
    parent.merge_snapshot(_worker_snapshot(0, 11.0, []),
                          kinds={"cwnd": "gauge"})
    assert parent.gauge("cwnd").value == 11.0


def test_histogram_counts_add_elementwise():
    parent = MetricsRegistry()
    parent.merge_snapshot(_worker_snapshot(0, 0.0, [0.5, 1.5]))
    parent.merge_snapshot(_worker_snapshot(0, 0.0, [3.0, 9.0]))
    h = parent.get("lat")
    assert h.count == 4
    assert h.counts == [1, 1, 1, 1]
    assert h.total == pytest.approx(14.0)
    assert h.minimum == 0.5
    assert h.maximum == 9.0


def test_histogram_layout_mismatch_raises():
    parent = MetricsRegistry()
    parent.histogram("lat", buckets=(10.0, 20.0)).observe(5.0)
    with pytest.raises(ValueError):
        parent.merge_snapshot(_worker_snapshot(0, 0.0, [1.0]))


def test_existing_instrument_kind_beats_inference():
    # A plain number would default to counter, but the parent already
    # holds a gauge under that name — the instrument's kind wins.
    parent = MetricsRegistry()
    parent.gauge("cwnd").set(1.0)
    parent.merge_snapshot({"cwnd": 9.0})
    assert parent.gauge("cwnd").value == 9.0
    parent.merge_snapshot({"cwnd": 2.0})
    assert parent.gauge("cwnd").value == 2.0  # LWW, not 11.0


def test_unknown_plain_numbers_default_to_counters():
    parent = MetricsRegistry()
    parent.merge_snapshot({"runs": 3})
    parent.merge_snapshot({"runs": 4})
    assert parent.counter("runs").value == 7


def test_merge_matches_single_process_result():
    # Two workers' halves must equal one process observing everything.
    half_a = _worker_snapshot(10, 5.0, [0.5, 1.5, 3.0])
    half_b = _worker_snapshot(20, 8.0, [1.7, 9.0])
    merged = MetricsRegistry()
    merged.merge_snapshot(half_a, kinds={"cwnd": "gauge"})
    merged.merge_snapshot(half_b, kinds={"cwnd": "gauge"})

    whole = _worker_snapshot(30, 8.0, [0.5, 1.5, 3.0, 1.7, 9.0])
    got = merged.snapshot()
    assert got["net.packets"] == whole["net.packets"]
    assert got["cwnd"] == whole["cwnd"]
    assert got["lat"]["counts"] == whole["lat"]["counts"]
    assert got["lat"]["sum"] == pytest.approx(whole["lat"]["sum"])
