"""Unidirectional link with serialization, propagation, queueing and loss."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.units import bytes_to_bits

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.events import Simulator
    from repro.net.node import Node


class Link:
    """A unidirectional link: egress queue -> serializer -> propagation.

    Parameters
    ----------
    sim:
        Owning simulator.
    src, dst:
        Endpoint nodes (used for topology bookkeeping and switch-energy
        attribution, not for forwarding, which is source-routed).
    rate_bps:
        Serialization rate in bits/second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Egress queue discipline; defaults to a 100-packet DropTail.
    loss_rate:
        Independent random loss probability applied per packet on arrival,
        modelling wireless corruption (the paper's Section III.B notes high
        wireless error rates inflate retransmissions and energy).
    """

    _next_id = 0

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float,
        *,
        queue=None,
        loss_rate: float = 0.0,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.id = Link._next_id
        Link._next_id += 1
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue()
        self.loss_rate = loss_rate
        self._random = sim.rand.random
        self._pool = sim.pool
        self._busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        self.random_losses = 0
        #: When False the link blackholes traffic (cable pull / radio out
        #: of range) — the failure mode MPTCP's fault tolerance targets.
        self.up = True
        self.failure_drops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.id} {self.src.name}->{self.dst.name} {self.rate_bps/1e6:.0f}Mbps>"

    def transmit(self, packet: Packet) -> None:
        """Accept a packet for transmission (queueing it if busy)."""
        if not self.up:
            self.failure_drops += 1
            self._pool.release(packet)
            return
        if self._busy:
            if not self.queue.push(packet):  # drop is accounted in the queue
                self._pool.release(packet)
            return
        self._start_serialization(packet)

    def fail(self) -> None:
        """Take the link down: everything queued or in flight is lost."""
        self.up = False
        while True:
            packet = self.queue.pop()
            if packet is None:
                break
            self.failure_drops += 1
            self._pool.release(packet)

    def restore(self) -> None:
        """Bring the link back up."""
        self.up = True

    def _start_serialization(self, packet: Packet) -> None:
        self._busy = True
        tx_time = bytes_to_bits(packet.size_bytes) / self.rate_bps
        self.sim.post(tx_time, self._serialization_done, packet)

    def _serialization_done(self, packet: Packet) -> None:
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        self.sim.post(self.delay, self._arrive, packet)
        nxt = self.queue.pop()
        if nxt is not None:
            self._start_serialization(nxt)
        else:
            self._busy = False

    def _arrive(self, packet: Packet) -> None:
        if not self.up:
            self.failure_drops += 1  # was in flight when the link died
            self._pool.release(packet)
            return
        if self.loss_rate > 0.0 and self._random() < self.loss_rate:
            self.random_losses += 1
            self._pool.release(packet)
            return
        hop = packet.hop + 1
        packet.hop = hop
        if hop < len(packet.route):
            packet.route[hop].transmit(packet)
        else:
            packet.sink.receive(packet)
            self._pool.release(packet)
