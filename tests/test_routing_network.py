"""Route and Network-builder tests."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.net.network import Network
from repro.net.routing import Route
from repro.units import mbps, ms


@pytest.fixture
def net():
    n = Network(seed=0)
    a, b = n.add_host("a"), n.add_host("b")
    s1, s2 = n.add_switch("s1"), n.add_switch("s2")
    n.link(a, s1, rate_bps=mbps(100), delay=ms(2))
    n.link(s1, s2, rate_bps=mbps(50), delay=ms(10))
    n.link(s2, b, rate_bps=mbps(100), delay=ms(3))
    return n


class TestNetworkBuilder:
    def test_duplicate_node_name_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.add_host("a")

    def test_node_lookup(self, net):
        assert net.node("s1").name == "s1"

    def test_unknown_node_lookup(self, net):
        with pytest.raises(RoutingError):
            net.node("zz")

    def test_link_between(self, net):
        a, s1 = net.node("a"), net.node("s1")
        link = net.link_between(a, s1)
        assert link.src is a and link.dst is s1

    def test_link_between_missing(self, net):
        with pytest.raises(RoutingError):
            net.link_between(net.node("a"), net.node("b"))

    def test_links_are_bidirectional_pairs(self, net):
        assert len(net.links) == 6  # 3 cables, two directions each

    def test_route_by_names(self, net):
        route = net.route(["a", "s1", "s2", "b"])
        assert route.src.name == "a"
        assert route.dst.name == "b"

    def test_route_needs_two_nodes(self, net):
        with pytest.raises(RoutingError):
            net.route(["a"])

    def test_queue_factory_gives_independent_queues(self):
        from repro.net.queues import DropTailQueue

        n = Network()
        a, b = n.add_host("a"), n.add_host("b")
        fwd, rev = n.link(a, b, rate_bps=mbps(10), delay=ms(1),
                          queue_factory=lambda: DropTailQueue(limit_packets=7))
        assert fwd.queue is not rev.queue
        assert fwd.queue.limit == 7


class TestRoute:
    def test_base_rtt_sums_both_directions(self, net):
        route = net.route(["a", "s1", "s2", "b"])
        assert route.base_rtt() == pytest.approx(2 * (0.002 + 0.010 + 0.003))

    def test_min_rate_is_bottleneck(self, net):
        route = net.route(["a", "s1", "s2", "b"])
        assert route.min_rate() == mbps(50)

    def test_hops(self, net):
        assert net.route(["a", "s1", "s2", "b"]).hops() == 3

    def test_switch_hops_counts_sw_sw_only(self, net):
        assert net.route(["a", "s1", "s2", "b"]).switch_hops() == 1

    def test_discontiguous_route_rejected(self, net):
        route = net.route(["a", "s1", "s2", "b"])
        with pytest.raises(RoutingError):
            Route([route.forward[0], route.forward[2]],
                  [route.reverse[0], route.reverse[2]])

    def test_empty_route_rejected(self):
        with pytest.raises(RoutingError):
            Route([], [])

    def test_mismatched_reverse_rejected(self, net):
        fwd = net.route(["a", "s1", "s2", "b"])
        with pytest.raises(RoutingError):
            Route(fwd.forward, fwd.forward)
