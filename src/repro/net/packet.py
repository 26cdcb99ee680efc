"""Packet representation for the packet-level simulator.

Packets are source-routed: each packet carries the full sequence of
:class:`~repro.net.link.Link` objects it must traverse plus a hop index.
Switch forwarding therefore costs one list index per hop, which keeps the
pure-Python event loop fast while still exercising every queue on the path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.errors import SimulationError
from repro.units import ACK_BYTES, DEFAULT_PACKET_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.link import Link


class Packet:
    """A data segment or an ACK.

    Sequence numbers are in MSS-sized segments, not bytes; the byte size is
    carried separately for serialization timing and throughput accounting.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "size_bytes",
        "is_ack",
        "ack_seq",
        "route",
        "hop",
        "sink",
        "sent_time",
        "echo_time",
        "ecn_capable",
        "ecn_ce",
        "ecn_echo",
        "is_retransmit",
        "sack_seq",
        "pooled",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size_bytes: int,
        route: Sequence["Link"],
        sink,
        *,
        is_ack: bool = False,
        ack_seq: int = -1,
        sent_time: float = 0.0,
        echo_time: float = 0.0,
        ecn_capable: bool = False,
        is_retransmit: bool = False,
    ):
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.route = route
        self.hop = 0
        self.sink = sink
        self.sent_time = sent_time
        self.echo_time = echo_time
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.ecn_echo = False
        self.is_retransmit = is_retransmit
        #: For ACKs: the out-of-order data seq this ACK selectively
        #: acknowledges (-1 when none) — a one-block SACK option.
        self.sack_seq = -1
        #: True only for packets issued by a :class:`PacketPool`; the link
        #: layer recycles those (and only those) once they die.
        self.pooled = False

    @classmethod
    def data(
        cls,
        flow_id: int,
        seq: int,
        route: Sequence["Link"],
        sink,
        now: float,
        *,
        size_bytes: int = DEFAULT_PACKET_BYTES,
        ecn_capable: bool = False,
        is_retransmit: bool = False,
    ) -> "Packet":
        """Build a data segment stamped with its send time."""
        return cls(
            flow_id,
            seq,
            size_bytes,
            route,
            sink,
            sent_time=now,
            ecn_capable=ecn_capable,
            is_retransmit=is_retransmit,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        num = self.ack_seq if self.is_ack else self.seq
        return f"<{kind} flow={self.flow_id} seq={num} hop={self.hop}/{len(self.route)}>"


class PacketPool:
    """Free-list recycler for :class:`Packet` objects.

    Senders acquire packets via :meth:`data` / :meth:`ack`; the link layer
    releases a *pooled* packet back the moment it dies (dropped, lost, or
    delivered to its sink). Every field is re-initialised on acquire, so a
    recycled packet is indistinguishable from a fresh one — pooling is
    purely an allocation optimisation.

    Two contracts follow:

    * a sink must not retain a pooled packet past its ``receive()`` call
      (copy the fields instead) — the built-in sinks never do;
    * packets built directly via ``Packet(...)`` / ``Packet.data`` are
      never recycled (``pooled`` stays False), so external code keeps
      full ownership of its own packets.

    With ``debug=True`` the pool verifies the lifecycle: releasing a
    packet twice raises, and :meth:`assert_drained` checks that every
    issued packet came back (the leak check tests run under).
    """

    __slots__ = ("enabled", "debug", "_free", "_free_ids",
                 "reuses", "allocs", "releases")

    def __init__(self, *, enabled: bool = True, debug: bool = False):
        self.enabled = enabled
        self.debug = debug
        self._free: List[Packet] = []
        self._free_ids: set = set()
        self.reuses = 0
        self.allocs = 0
        self.releases = 0

    def __len__(self) -> int:
        return len(self._free)

    @property
    def outstanding(self) -> int:
        """Issued pooled packets not yet released."""
        return self.allocs + self.reuses - self.releases

    def data(
        self,
        flow_id: int,
        seq: int,
        route: Sequence["Link"],
        sink,
        now: float,
        *,
        size_bytes: int = DEFAULT_PACKET_BYTES,
        ecn_capable: bool = False,
        is_retransmit: bool = False,
    ) -> Packet:
        """Pooled equivalent of :meth:`Packet.data`."""
        free = self._free
        if free:
            self.reuses += 1
            pkt = free.pop()
            if self.debug:
                self._free_ids.discard(id(pkt))
            pkt.flow_id = flow_id
            pkt.seq = seq
            pkt.size_bytes = size_bytes
            pkt.is_ack = False
            pkt.ack_seq = -1
            pkt.route = route
            pkt.hop = 0
            pkt.sink = sink
            pkt.sent_time = now
            pkt.echo_time = 0.0
            pkt.ecn_capable = ecn_capable
            pkt.ecn_ce = False
            pkt.ecn_echo = False
            pkt.is_retransmit = is_retransmit
            pkt.sack_seq = -1
            pkt.pooled = True
            return pkt
        self.allocs += 1
        pkt = Packet(flow_id, seq, size_bytes, route, sink, sent_time=now,
                     ecn_capable=ecn_capable, is_retransmit=is_retransmit)
        pkt.pooled = self.enabled
        return pkt

    def ack(
        self,
        flow_id: int,
        ack_seq: int,
        route: Sequence["Link"],
        sink,
        now: float,
        *,
        echo_time: float,
        ecn_echo: bool = False,
        sack_seq: int = -1,
    ) -> Packet:
        """A cumulative ACK echoing the data packet's send time, from
        the free list when one is there."""
        free = self._free
        if free:
            self.reuses += 1
            pkt = free.pop()
            if self.debug:
                self._free_ids.discard(id(pkt))
            pkt.flow_id = flow_id
            pkt.seq = -1
            pkt.size_bytes = ACK_BYTES
            pkt.is_ack = True
            pkt.ack_seq = ack_seq
            pkt.route = route
            pkt.hop = 0
            pkt.sink = sink
            pkt.sent_time = now
            pkt.echo_time = echo_time
            pkt.ecn_capable = False
            pkt.ecn_ce = False
            pkt.ecn_echo = ecn_echo
            pkt.is_retransmit = False
            pkt.sack_seq = sack_seq
            pkt.pooled = True
            return pkt
        self.allocs += 1
        pkt = Packet(flow_id, -1, ACK_BYTES, route, sink, is_ack=True,
                     ack_seq=ack_seq, sent_time=now, echo_time=echo_time)
        pkt.ecn_echo = ecn_echo
        pkt.sack_seq = sack_seq
        pkt.pooled = self.enabled
        return pkt

    def release(self, pkt: Packet) -> None:
        """Return a dead pooled packet to the free list.

        Non-pooled packets (``pkt.pooled`` False) are ignored, so release
        sites need no ownership checks of their own.
        """
        if self.debug and id(pkt) in self._free_ids:
            raise SimulationError(f"double release of {pkt!r}")
        if not pkt.pooled:
            return
        if self.debug:
            self._free_ids.add(id(pkt))
            pkt.route = ()
            pkt.sink = None
        pkt.pooled = False
        self.releases += 1
        self._free.append(pkt)

    def assert_drained(self) -> None:
        """Debug leak check: every issued pooled packet must be back."""
        if self.outstanding:
            raise SimulationError(
                f"packet pool leak: {self.outstanding} packet(s) issued "
                f"but never released "
                f"(allocs={self.allocs}, reuses={self.reuses}, "
                f"releases={self.releases})")
