"""RED-queue end-to-end behaviour and miscellaneous network-facade tests."""

import pytest

from repro.net.monitor import LinkMonitor
from repro.net.network import Network
from repro.net.queues import DropTailQueue, REDQueue
from repro.units import mbps, mib, ms


def red_path(seed=1, **red_kwargs):
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")

    def qf():
        return REDQueue(limit_packets=200, min_th=20, max_th=80, max_p=0.1,
                        rng=net.sim.rand, **red_kwargs)

    net.link(a, s, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
    net.link(s, b, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
    return net, net.route([a, s, b])


class TestRedEndToEnd:
    def test_transfer_completes_over_red(self):
        net, route = red_path()
        conn = net.tcp_connection(route, total_bytes=mib(4))
        conn.start()
        net.run_until_complete([conn], timeout=120)
        assert conn.completed

    def test_red_drops_early(self):
        net, route = red_path()
        conn = net.tcp_connection(route, total_bytes=None)
        conn.start()
        net.run(until=15.0)
        red_queues = [l.queue for l in net.links if isinstance(l.queue, REDQueue)]
        assert sum(q.drops for q in red_queues) > 0
        # Early drops keep the queue below the hard limit.
        assert all(len(q) < q.limit for q in red_queues)

    def test_red_keeps_average_queue_below_droptail(self):
        def mean_occupancy(use_red):
            if use_red:
                net, route = red_path(seed=2)
            else:
                net = Network(seed=2)
                a, b = net.add_host("a"), net.add_host("b")
                s = net.add_switch("s")
                qf = lambda: DropTailQueue(limit_packets=200)
                net.link(a, s, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
                net.link(s, b, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
                route = net.route([a, s, b])
            conn = net.tcp_connection(route, total_bytes=None)
            mon = LinkMonitor(net.sim, net.links, interval=0.1)
            conn.start()
            net.run(until=15.0)
            flat = [v for series in mon.occupancy for v in series[20:]]
            return sum(flat) / max(len(flat), 1)

        assert mean_occupancy(use_red=True) < mean_occupancy(use_red=False)

    def test_red_with_ecn_marks_dctcp(self):
        net = Network(seed=3)
        a, b = net.add_host("a"), net.add_host("b")
        s = net.add_switch("s")

        def qf():
            return REDQueue(limit_packets=200, min_th=10, max_th=60,
                            max_p=0.2, ecn=True, rng=net.sim.rand)

        net.link(a, s, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
        net.link(s, b, rate_bps=mbps(100), delay=ms(5), queue_factory=qf)
        conn = net.tcp_connection(net.route([a, s, b]), total_bytes=mib(4),
                                  algorithm="dctcp")
        conn.start()
        net.run_until_complete([conn], timeout=120)
        marks = sum(l.queue.marks for l in net.links)
        assert conn.completed
        assert marks > 0


class TestNetworkFacadeMisc:
    def test_run_until_complete_times_out_gracefully(self):
        net = Network(seed=1)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, rate_bps=mbps(0.1), delay=ms(5))
        conn = net.tcp_connection(net.route([a, b]), total_bytes=mib(8))
        conn.start()
        t = net.run_until_complete([conn], timeout=1.0)
        assert not conn.completed
        assert t <= 1.1

    def test_run_until_complete_without_args_uses_all_connections(self):
        net = Network(seed=1)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, rate_bps=mbps(100), delay=ms(5))
        route = net.route([a, b])
        c1 = net.tcp_connection(route, total_bytes=200_000)
        c2 = net.tcp_connection(route, total_bytes=200_000)
        c1.start(), c2.start()
        net.run_until_complete(timeout=60)
        assert c1.completed and c2.completed

    def test_controller_instance_accepted_directly(self):
        from repro.algorithms import LiaController

        net = Network(seed=1)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, rate_bps=mbps(100), delay=ms(5))
        ctrl = LiaController()
        conn = net.connection([net.route([a, b])], ctrl, total_bytes=100_000)
        assert conn.controller is ctrl

    def test_connections_registered_on_network(self):
        net = Network(seed=1)
        a, b = net.add_host("a"), net.add_host("b")
        net.link(a, b, rate_bps=mbps(100), delay=ms(5))
        net.tcp_connection(net.route([a, b]), total_bytes=1000)
        assert len(net.connections) == 1
