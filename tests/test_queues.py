"""Queue-discipline tests: DropTail (with ECN)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, EcnConfig


def make_packet(seq=0, ecn=False):
    return Packet(flow_id=1, seq=seq, size_bytes=1500, route=(), sink=None,
                  ecn_capable=ecn)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(limit_packets=10)
        for i in range(3):
            q.push(make_packet(seq=i))
        assert [q.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_pop_empty_returns_none(self):
        assert DropTailQueue().pop() is None

    def test_drop_when_full(self):
        q = DropTailQueue(limit_packets=2)
        assert q.push(make_packet())
        assert q.push(make_packet())
        assert not q.push(make_packet())
        assert q.drops == 1
        assert len(q) == 2

    def test_occupancy_tracks_contents(self):
        q = DropTailQueue(limit_packets=5)
        q.push(make_packet())
        q.push(make_packet())
        q.pop()
        assert q.occupancy() == 1

    def test_enqueued_counter(self):
        q = DropTailQueue(limit_packets=5)
        for i in range(4):
            q.push(make_packet(seq=i))
        assert q.enqueued == 4

    def test_invalid_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            DropTailQueue(limit_packets=0)

    def test_ecn_marks_above_threshold(self):
        q = DropTailQueue(limit_packets=10, ecn=EcnConfig(threshold=2))
        pkts = [make_packet(seq=i, ecn=True) for i in range(4)]
        for p in pkts:
            q.push(p)
        assert [p.ecn_ce for p in pkts] == [False, False, True, True]
        assert q.marks == 2

    def test_ecn_ignores_non_capable_packets(self):
        q = DropTailQueue(limit_packets=10, ecn=EcnConfig(threshold=1))
        first = make_packet(ecn=False)
        q.push(first)
        second = make_packet(ecn=False)
        q.push(second)
        assert not second.ecn_ce
        assert q.marks == 0

    def test_ecn_threshold_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EcnConfig(threshold=0)
