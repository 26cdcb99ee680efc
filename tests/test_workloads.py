"""Workload generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.rand import Pcg64
from repro.units import mbps, ms
from repro.workloads import (
    NullSink,
    ParetoBurstSource,
    random_permutation_pairs,
)


def burst_network():
    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    net.link(a, b, rate_bps=mbps(100), delay=ms(1))
    return net, net.route([a, b])


class TestParetoBursts:
    def test_emits_packets_during_bursts(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(10),
                                mean_interval=0.5, mean_duration=0.5)
        src.start()
        net.run(until=20.0)
        assert src.packets_sent > 0
        # A handful of packets may still be in flight at the cutoff.
        assert src.packets_sent - 5 <= src.sink.packets <= src.packets_sent

    def test_rate_respected_during_on_periods(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(10),
                                mean_interval=0.01, mean_duration=100.0)
        src.start()
        net.run(until=10.0)
        # Essentially always ON: ~10 Mbps of 1500 B packets.
        expected = 10e6 * 10 / (1500 * 8)
        assert src.packets_sent == pytest.approx(expected, rel=0.2)

    def test_off_periods_produce_silence(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(10),
                                mean_interval=1000.0, mean_duration=0.1)
        src.start()
        net.run(until=5.0)
        assert src.packets_sent == 0  # first burst far in the future

    def test_burst_count_roughly_matches_cadence(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(1),
                                mean_interval=1.0, mean_duration=0.5)
        src.start()
        net.run(until=100.0)
        # ~100 / (1.0 + 0.5) cycles expected.
        assert 30 <= src.bursts_generated <= 130

    def test_cannot_start_twice(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(1))
        src.start()
        with pytest.raises(ConfigurationError):
            src.start()

    def test_invalid_rate_rejected(self):
        net, route = burst_network()
        with pytest.raises(ConfigurationError):
            ParetoBurstSource(net.sim, route, rate_bps=0)

    def test_invalid_shape_rejected(self):
        net, route = burst_network()
        with pytest.raises(ConfigurationError):
            ParetoBurstSource(net.sim, route, rate_bps=mbps(1), pareto_shape=1.0)

    def test_mean_burst_duration_approximate(self):
        net, route = burst_network()
        src = ParetoBurstSource(net.sim, route, rate_bps=mbps(1),
                                mean_interval=0.5, mean_duration=2.0)
        durations = [src._next_on_period() for _ in range(4000)]
        assert np.mean(durations) == pytest.approx(2.0, rel=0.25)

    def test_null_sink_counts(self):
        sink = NullSink()

        class P:
            size_bytes = 100

        sink.receive(P())
        sink.receive(P())
        assert sink.packets == 2
        assert sink.bytes == 200


class TestPermutation:
    def test_derangement(self):
        hosts = [f"h{i}" for i in range(50)]
        pairs = random_permutation_pairs(hosts, np.random.default_rng(0))
        assert all(src != dst for src, dst in pairs)

    def test_every_host_sends_once_receives_once(self):
        hosts = [f"h{i}" for i in range(20)]
        pairs = random_permutation_pairs(hosts, np.random.default_rng(1))
        assert sorted(s for s, _ in pairs) == sorted(hosts)
        assert sorted(d for _, d in pairs) == sorted(hosts)

    def test_needs_two_hosts(self):
        with pytest.raises(ConfigurationError):
            random_permutation_pairs(["only"], np.random.default_rng(0))

    @given(st.integers(min_value=2, max_value=40), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_always_a_derangement(self, n, seed):
        hosts = [f"h{i}" for i in range(n)]
        pairs = random_permutation_pairs(hosts, np.random.default_rng(seed))
        assert all(s != d for s, d in pairs)
        assert len({d for _, d in pairs}) == n
        # The engines' stdlib generator pairs exactly as numpy's does.
        assert random_permutation_pairs(hosts, Pcg64(seed)) == pairs
