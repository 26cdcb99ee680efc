"""MPTCP connection-layer tests."""

import pytest

from repro.errors import ConfigurationError
from repro.net.mptcp import MptcpConnection
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mbps, mib, mb, ms


def two_path_net(*, rate=mbps(100), delay1=ms(10), delay2=ms(10), seed=1,
                 queue=100):
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for i, d in enumerate((delay1, delay2)):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=rate, delay=d / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=queue))
        net.link(s, b, rate_bps=rate, delay=d / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=queue))
        routes.append(net.route([a, s, b]))
    return net, routes


def test_needs_at_least_one_route():
    net = Network()
    from repro.algorithms import create_controller

    with pytest.raises(ConfigurationError):
        MptcpConnection(net.sim, [], create_controller("lia"))


def test_aggregates_two_paths():
    net, routes = two_path_net()
    conn = net.connection(routes, "lia", total_bytes=mb(16))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    assert conn.completed
    # Two disjoint 100 Mbps paths: aggregate beats a single path.
    assert conn.aggregate_goodput_bps() > mbps(105)


def test_subflow_count():
    net, routes = two_path_net()
    conn = net.connection(routes, "olia", total_bytes=mib(1))
    assert conn.n_subflows == 2


def test_single_route_behaves_like_tcp():
    net, routes = two_path_net()
    conn = net.connection([routes[0]], "reno", total_bytes=mib(2))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    assert conn.completed
    assert conn.aggregate_goodput_bps() <= mbps(100) * 1.01


def test_controller_sees_all_subflows():
    net, routes = two_path_net()
    conn = net.connection(routes, "balia", total_bytes=mib(1))
    assert conn.controller.n_subflows == 2
    assert conn.controller.subflows[0] is conn.subflows[0]


def test_subflows_share_supply():
    net, routes = two_path_net()
    conn = net.connection(routes, "lia", total_bytes=mib(4))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    acked = sum(sf.acked for sf in conn.subflows)
    assert acked == conn.supply.total
    assert all(sf.acked > 0 for sf in conn.subflows)


def test_completion_time_recorded():
    net, routes = two_path_net()
    conn = net.connection(routes, "lia", total_bytes=mib(1))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    assert conn.completion_time is not None
    assert 0 < conn.completion_time <= net.sim.now


def test_mean_rtt_between_path_rtts():
    net, routes = two_path_net(delay1=ms(10), delay2=ms(50))
    conn = net.connection(routes, "lia", total_bytes=mib(4))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    mean = conn.mean_rtt()
    assert 0.005 < mean < 0.2


def test_asymmetric_delays_shift_traffic_to_fast_path():
    net, routes = two_path_net(delay1=ms(5), delay2=ms(80))
    conn = net.connection(routes, "lia", total_bytes=mb(12))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    fast, slow = conn.subflows
    assert fast.acked > slow.acked


def test_total_counters_sum_subflows():
    net, routes = two_path_net(queue=15, seed=9)
    conn = net.connection(routes, "lia", total_bytes=mb(8))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    assert conn.total_loss_events() == sum(s.loss_events for s in conn.subflows)
    assert conn.total_retransmissions() == sum(s.retransmitted for s in conn.subflows)
