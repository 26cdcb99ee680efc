"""Event queue / simulator clock tests."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.events import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(0.3, seen.append, "c")
    sim.schedule(0.1, seen.append, "a")
    sim.schedule(0.2, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_run_in_schedule_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    sim.schedule(2.5, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(2.5)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == pytest.approx(2.0)
    assert sim.pending() == 1


def test_event_at_exact_until_runs():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "x")
    sim.run(until=2.0)
    assert seen == ["x"]


def test_cancelled_event_skipped():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.001, reschedule)

    sim.schedule(0.001, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_rng_is_seeded_deterministically():
    a, b, other = Simulator(seed=7).rand, Simulator(seed=7).rand, Simulator(seed=8).rand
    draws = [a.random() for _ in range(4)]
    assert draws == [b.random() for _ in range(4)]
    assert draws != [other.random() for _ in range(4)]
    assert Simulator().rand.state != Simulator().rand.state  # seed=None: OS entropy


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_bad_seed_is_rejected_before_any_event_runs(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        Simulator(seed=seed)


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def outer():
        seen.append("outer")
        sim.schedule(0.5, seen.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == ["outer", "inner"]
    assert sim.now == pytest.approx(1.5)


def test_run_until_with_empty_queue_sets_clock():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)
