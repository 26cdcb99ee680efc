"""MPTCP subflow-scheduler tests."""

import pytest

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.net.scheduler import (
    GreedyScheduler,
    MinRttScheduler,
    RoundRobinScheduler,
    create_scheduler,
)
from repro.units import DEFAULT_MSS, mbps, mib, ms
from repro.workloads.streaming import attach_streaming_source


def asymmetric_net(seed=1):
    """Two paths: fast 10 ms and slow 100 ms, both far from saturation."""
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for i, d in enumerate((ms(10), ms(100))):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=mbps(100), delay=d / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=200))
        net.link(s, b, rate_bps=mbps(100), delay=d / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=200))
        routes.append(net.route([a, s, b]))
    return net, routes


STREAM_BPS = mbps(5)
STREAM_S = 15.0


def stream_split(scheduler):
    """Segments acked on the (fast, slow) path after a 5 Mbps app-limited
    stream has run for 15 s; greedy is the connection's default."""
    net, routes = asymmetric_net()
    kwargs = {} if scheduler == "greedy" else {"scheduler": scheduler}
    conn = net.connection(routes, "lia", total_bytes=None, **kwargs)
    attach_streaming_source(conn, bitrate_bps=STREAM_BPS)
    conn.start()
    net.run(until=STREAM_S)
    fast, slow = conn.subflows
    return fast.acked, slow.acked


class TestRegistry:
    def test_create_by_name(self):
        assert isinstance(create_scheduler("greedy"), GreedyScheduler)
        assert isinstance(create_scheduler("minrtt"), MinRttScheduler)
        assert isinstance(create_scheduler("RoundRobin"), RoundRobinScheduler)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            create_scheduler("blest")


class TestMinRtt:
    def test_app_limited_stream_prefers_fast_path(self):
        fast, slow = stream_split("minrtt")
        assert fast / (fast + slow) > 0.9

    def test_minrtt_concentrates_more_than_greedy(self):
        def slow_share(scheduler):
            fast, slow = stream_split(scheduler)
            return slow / (fast + slow)

        assert slow_share("minrtt") <= slow_share("greedy")
        assert slow_share("minrtt") < slow_share("roundrobin")

    def test_bulk_transfer_still_uses_both_paths(self):
        # Window-limited transfers overflow the fast path's window, so the
        # slow path still carries real traffic under minRTT.
        net, routes = asymmetric_net()
        conn = net.connection(routes, "lia", total_bytes=mib(8),
                              scheduler="minrtt")
        conn.start()
        net.run_until_complete([conn], timeout=60)
        assert conn.completed
        fast, slow = conn.subflows
        assert slow.acked > 0

    def test_no_starvation_when_fast_path_window_full(self):
        net, routes = asymmetric_net()
        conn = net.connection(routes, "lia", total_bytes=mib(4),
                              scheduler="minrtt")
        conn.start()
        net.run_until_complete([conn], timeout=60)
        assert conn.completed


class TestRoundRobin:
    def test_balances_app_limited_traffic(self):
        fast, slow = stream_split("roundrobin")
        assert 0.35 < fast / (fast + slow) < 0.65

    def test_bulk_transfer_completes(self):
        net, routes = asymmetric_net()
        conn = net.connection(routes, "olia", total_bytes=mib(4),
                              scheduler="roundrobin")
        conn.start()
        net.run_until_complete([conn], timeout=60)
        assert conn.completed


class TestSchedulerTotals:
    @pytest.mark.parametrize("scheduler", ["greedy", "minrtt", "roundrobin"])
    def test_app_limited_stream_delivered(self, scheduler):
        fast, slow = stream_split(scheduler)
        goodput_bps = (fast + slow) * DEFAULT_MSS * 8 / STREAM_S
        assert goodput_bps > 0.9 * STREAM_BPS

    @pytest.mark.parametrize("scheduler", ["greedy", "minrtt", "roundrobin"])
    def test_no_segments_lost_or_duplicated(self, scheduler):
        net, routes = asymmetric_net(seed=4)
        kwargs = {} if scheduler == "greedy" else {"scheduler": scheduler}
        conn = net.connection(routes, "lia", total_bytes=mib(2), **kwargs)
        conn.start()
        net.run_until_complete([conn], timeout=60)
        assert conn.completed
        assert sum(sf.acked for sf in conn.subflows) == conn.supply.total
        assert conn.supply.assigned == conn.supply.total
