"""Link-failure resilience and fairness-metric tests."""

import pytest

from repro.analysis.fairness import jain_index
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mbps, ms


def two_path_net(seed=1):
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes, bottlenecks = [], []
    for i in range(2):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=mbps(100), delay=ms(5),
                 queue_factory=lambda: DropTailQueue(limit_packets=100))
        fwd, _ = net.link(s, b, rate_bps=mbps(100), delay=ms(5),
                          queue_factory=lambda: DropTailQueue(limit_packets=100))
        routes.append(net.route([a, s, b]))
        bottlenecks.append(fwd)
    return net, routes, bottlenecks


class TestLinkFailure:
    def test_failed_link_blackholes(self):
        net, routes, bottlenecks = two_path_net()
        conn = net.tcp_connection(routes[0], total_bytes=None)
        conn.start()
        net.run(until=2.0)
        delivered_before = conn.supply.acked
        bottlenecks[0].fail()
        net.run(until=4.0)
        # Nothing new delivered after the blackhole (a handful in flight
        # at the instant of failure may still land).
        assert conn.supply.acked <= delivered_before + 200
        assert bottlenecks[0].failure_drops > 0

    def test_mptcp_survives_single_path_failure(self):
        net, routes, bottlenecks = two_path_net()
        conn = net.connection(routes, "lia", total_bytes=None)
        conn.start()
        net.run(until=3.0)
        bottlenecks[0].fail()
        acked_at_failure = conn.supply.acked
        net.run(until=10.0)
        delivered_after = (conn.supply.acked - acked_at_failure) * 1460 * 8 / 7.0
        # The surviving path keeps the connection going near its capacity.
        assert delivered_after > mbps(50)

    def test_single_path_tcp_stalls_on_failure(self):
        net, routes, bottlenecks = two_path_net()
        conn = net.tcp_connection(routes[0], total_bytes=None)
        conn.start()
        net.run(until=3.0)
        bottlenecks[0].fail()
        acked_at_failure = conn.supply.acked
        net.run(until=10.0)
        assert conn.supply.acked - acked_at_failure < 300

    def test_restore_resumes_traffic(self):
        net, routes, bottlenecks = two_path_net()
        conn = net.tcp_connection(routes[0], total_bytes=None)
        conn.start()
        net.run(until=2.0)
        bottlenecks[0].fail()
        net.run(until=4.0)
        bottlenecks[0].restore()
        acked_at_restore = conn.supply.acked
        net.run(until=12.0)
        # RTO backoff delays the comeback, but traffic must resume.
        assert conn.supply.acked > acked_at_restore + 500

    def test_failure_drains_queue(self):
        net, routes, bottlenecks = two_path_net()
        conn = net.tcp_connection(routes[0], total_bytes=None)
        conn.start()
        net.run(until=1.0)
        link = bottlenecks[0]
        link.queue.push_count = None  # no-op guard; queue may be non-empty
        link.fail()
        assert link.queue.occupancy() == 0


class TestFairnessMetrics:
    def test_jain_equal_allocations(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_jain_single_hog(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([])

    def test_jain_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([-1, 2])

    def test_jain_all_zero_is_fair(self):
        assert jain_index([0, 0]) == 1.0

    def test_simulated_fairness_on_shared_link(self):
        net = Network(seed=3)
        a, b = net.add_host("a"), net.add_host("b")
        s = net.add_switch("s")
        net.link(a, s, rate_bps=mbps(200), delay=ms(5))
        net.link(s, b, rate_bps=mbps(100), delay=ms(5),
                 queue_factory=lambda: DropTailQueue(limit_packets=80))
        route = net.route([a, s, b])
        conns = [net.tcp_connection(route, total_bytes=None) for _ in range(3)]
        for i, c in enumerate(conns):
            c.start(0.05 * i)
        net.run(until=30.0)
        goodputs = [c.aggregate_goodput_bps(elapsed=25.0) for c in conns]
        assert jain_index(goodputs) > 0.85
