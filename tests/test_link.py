"""Link serialization / propagation / loss tests."""

import pytest

from repro.net.events import Simulator
from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet
from repro.units import mbps, ms


class Recorder:
    def __init__(self):
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append(packet)


def one_link(seed=None, **kwargs):
    sim = Simulator(seed=seed)
    a, b = Host("a"), Host("b")
    link = Link(sim, a, b, kwargs.pop("rate_bps", mbps(100)),
                kwargs.pop("delay", ms(10)), **kwargs)
    return sim, link


def send(sim, link, sink, n=1, size=1500):
    for i in range(n):
        pkt = Packet(flow_id=1, seq=i, size_bytes=size, route=(link,), sink=sink)
        link.transmit(pkt)


def test_single_packet_latency_is_serialization_plus_propagation():
    sim, link = one_link()
    sink = Recorder()
    send(sim, link, sink)
    sim.run()
    # 1500 B at 100 Mbps = 120 us; propagation 10 ms.
    assert sim.now == pytest.approx(120e-6 + 0.010)
    assert len(sink.arrivals) == 1


def test_back_to_back_packets_pipeline():
    sim, link = one_link()
    sink = Recorder()
    send(sim, link, sink, n=3)
    sim.run()
    # Last packet leaves after 3 serializations, then propagates.
    assert sim.now == pytest.approx(3 * 120e-6 + 0.010)
    assert len(sink.arrivals) == 3


def test_queue_overflow_drops():
    sim, link = one_link()
    link.queue.limit = 2
    sink = Recorder()
    # One serializing + 2 queued; the rest dropped.
    send(sim, link, sink, n=10)
    sim.run()
    assert len(sink.arrivals) == 3
    assert link.queue.drops == 7


def test_bytes_and_packets_counted():
    sim, link = one_link()
    sink = Recorder()
    send(sim, link, sink, n=4)
    sim.run()
    assert link.packets_sent == 4
    assert link.bytes_sent == 4 * 1500


def test_random_loss_drops_packets():
    sim, link = one_link(seed=1, loss_rate=0.5)
    link.queue.limit = 1000
    sink = Recorder()
    send(sim, link, sink, n=200)
    sim.run()
    assert 0 < len(sink.arrivals) < 200
    assert link.random_losses == 200 - len(sink.arrivals)


def test_zero_loss_rate_delivers_everything():
    sim, link = one_link(seed=1, loss_rate=0.0)
    sink = Recorder()
    send(sim, link, sink, n=50)
    sim.run()
    assert len(sink.arrivals) == 50


def test_invalid_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, Host("a"), Host("b"), 0, ms(1))


def test_invalid_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, Host("a"), Host("b"), mbps(10), -0.001)


def test_invalid_loss_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, Host("a"), Host("b"), mbps(10), ms(1), loss_rate=1.0)


def test_multi_hop_forwarding():
    sim = Simulator()
    a, b, c = Host("a"), Host("b"), Host("c")
    l1 = Link(sim, a, b, mbps(100), ms(5))
    l2 = Link(sim, b, c, mbps(100), ms(5))
    sink = Recorder()
    pkt = Packet(flow_id=1, seq=0, size_bytes=1500, route=(l1, l2), sink=sink)
    l1.transmit(pkt)
    sim.run()
    assert len(sink.arrivals) == 1
    assert sim.now == pytest.approx(2 * 120e-6 + 2 * 0.005)
