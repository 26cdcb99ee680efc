"""Live time-series tests: ring buffers and the registry recorder."""

import pytest

from repro.obs import MetricsRegistry, SeriesRecorder, TimeSeries
from repro.obs.timeseries import SERIES_SCHEMA


class FakeClock:
    def __init__(self, t0=100.0):
        self.t = t0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


# ---------------------------------------------------------------- TimeSeries

def test_ring_appends_in_order():
    ts = TimeSeries("s", capacity=8)
    for i in range(5):
        ts.append(float(i), float(i) * 10)
    assert len(ts) == 5
    assert ts.points() == [(float(i), float(i) * 10) for i in range(5)]
    assert ts.last() == (4.0, 40.0)
    assert ts.dropped == 0


def test_ring_evicts_oldest_and_counts_drops():
    ts = TimeSeries("s", capacity=3)
    for i in range(7):
        ts.append(float(i), float(i))
    assert len(ts) == 3
    assert ts.points() == [(4.0, 4.0), (5.0, 5.0), (6.0, 6.0)]
    assert ts.dropped == 4


def test_ring_rejects_zero_capacity():
    with pytest.raises(ValueError):
        TimeSeries("s", capacity=0)


# ------------------------------------------------------------ SeriesRecorder

def test_counter_needs_two_samples_for_a_rate():
    clock = FakeClock()
    reg = MetricsRegistry()
    c = reg.counter("net.packets")
    rec = SeriesRecorder(reg, interval=1.0, clock=clock)
    c.inc(10)
    rec.sample()
    assert "net.packets.rate" not in rec.series  # one look = no rate yet
    c.inc(20)
    clock.advance(2.0)
    rec.sample()
    ring = rec.series["net.packets.rate"]
    assert ring.last() == (clock.t, pytest.approx(10.0))  # 20 / 2 s


def test_gauge_records_value_and_histogram_records_percentiles():
    clock = FakeClock()
    reg = MetricsRegistry()
    reg.gauge("cwnd").set(12.5)
    h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0):
        h.observe(v)
    rec = SeriesRecorder(reg, clock=clock)
    rec.sample()
    assert rec.series["cwnd"].last() == (clock.t, 12.5)
    for p in ("p50", "p95", "p99"):
        assert f"lat.{p}" in rec.series


def test_snapshot_carries_schema_kind_and_gauge_staleness(monkeypatch):
    from repro.obs.metrics import Gauge

    clock = FakeClock()
    monkeypatch.setattr(Gauge, "_clock", staticmethod(clock))
    reg = MetricsRegistry()
    g = reg.gauge("g")
    g.set(2.0)
    reg.counter("c").inc()
    rec = SeriesRecorder(reg, clock=clock)
    rec.sample()
    clock.advance(1.0)
    rec.sample()
    doc = rec.snapshot()
    assert doc["schema"] == SERIES_SCHEMA
    entry = doc["series"]["g"]
    assert entry["kind"] == "gauge"
    # The gauge's last-set time surfaces so dashboards can grey it.
    assert entry["updated_unix"] == pytest.approx(100.0)
    assert len(entry["points"]) == 2
    # Only gauges carry the stamp; a counter's rate series does not.
    assert doc["series"]["c.rate"]["kind"] == "counter"
    assert "updated_unix" not in doc["series"]["c.rate"]


def test_last_values_returns_newest_point_per_series():
    clock = FakeClock()
    reg = MetricsRegistry()
    g = reg.gauge("g")
    g.set(1.0)
    rec = SeriesRecorder(reg, clock=clock)
    rec.sample()
    g.set(7.0)
    clock.advance(1.0)
    rec.sample()
    assert rec.last_values() == {"g": 7.0}


def test_forget_drops_an_instruments_rings_and_nothing_else():
    clock = FakeClock()
    reg = MetricsRegistry()
    reg.gauge("conn.cwnd").set(4.0)
    reg.gauge("conn.cwnd.rate").set(1.0)  # a gauge, not conn.cwnd's rate
    reg.counter("acks").inc(3)
    reg.histogram("rtt").observe(0.02)
    rec = SeriesRecorder(reg, clock=clock)
    rec.sample()
    clock.advance(1.0)
    rec.sample()
    assert rec.forget("conn.cwnd") == 1
    assert "conn.cwnd" not in rec.series
    assert "conn.cwnd" not in rec.snapshot()["series"]
    assert "conn.cwnd.rate" in rec.series
    assert rec.forget("acks") == 1 and "acks.rate" not in rec.series
    assert rec.forget("rtt") == 3
    assert sorted(rec.series) == ["conn.cwnd.rate"]
    assert rec.forget("never-seen") == 0
    # A forgotten counter starts over: one look is not yet a rate.
    clock.advance(1.0)
    rec.sample()
    assert "acks.rate" not in rec.series


def test_removed_gauge_stops_being_sampled():
    clock = FakeClock()
    reg = MetricsRegistry()
    gauge = reg.gauge("conn.energy_j")
    rec = SeriesRecorder(reg, clock=clock)
    rec.sample()
    assert reg.remove("conn.energy_j") and rec.forget("conn.energy_j") == 1
    gauge.set(9.0)  # a holder may still write; nobody reads it
    clock.advance(1.0)
    assert rec.sample() == 0
    assert rec.series == {} and rec.last_values() == {}
