"""Miscellaneous network-facade tests."""

from repro.net.network import Network
from repro.units import mbps, mib, ms


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
