"""Egress queue disciplines: DropTail (with optional ECN) and RED.

Queues hold packets awaiting serialization on a link. The scenarios in the
paper use DropTail (the ns-2 wireless scenario sets a 50-packet DropTail
limit); ECN marking on DropTail is required by DCTCP, and RED is included as
the classical AQM baseline.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet


class EcnConfig:
    """ECN marking configuration for a DropTail queue.

    Packets from ECN-capable flows are marked (instead of dropped) once the
    instantaneous occupancy reaches ``threshold`` packets. This is the
    step-marking scheme DCTCP assumes.
    """

    __slots__ = ("threshold",)

    def __init__(self, threshold: int):
        if threshold <= 0:
            raise ConfigurationError(f"ECN threshold must be positive, got {threshold}")
        self.threshold = threshold


class DropTailQueue:
    """FIFO queue with a hard packet-count limit and optional ECN marking."""

    def __init__(self, limit_packets: int = 100, ecn: Optional[EcnConfig] = None):
        if limit_packets <= 0:
            raise ConfigurationError(f"queue limit must be positive, got {limit_packets}")
        self.limit = limit_packets
        self.ecn = ecn
        self._queue: deque = deque()
        self.drops = 0
        self.marks = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, packet: Packet) -> bool:
        """Try to enqueue; returns False (and counts a drop) when full."""
        if len(self._queue) >= self.limit:
            self.drops += 1
            return False
        if self.ecn is not None and packet.ecn_capable and len(self._queue) >= self.ecn.threshold:
            packet.ecn_ce = True
            self.marks += 1
        self._queue.append(packet)
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def occupancy(self) -> int:
        """Current number of queued packets."""
        return len(self._queue)


class REDQueue:
    """Random Early Detection queue (Floyd & Jacobson).

    Maintains an EWMA of the occupancy; between ``min_th`` and ``max_th`` the
    drop/mark probability ramps linearly up to ``max_p``, above ``max_th``
    everything is dropped (or marked, for ECN-capable packets).

    ``rng`` needs only a scalar ``random()`` method. Pass ``sim.rand`` so
    early-drop draws come from the simulation's one seeded stream.
    """

    def __init__(
        self,
        limit_packets: int = 100,
        *,
        min_th: float = 5.0,
        max_th: float = 15.0,
        max_p: float = 0.1,
        weight: float = 0.002,
        ecn: bool = False,
        rng=None,
    ):
        if not 0 < min_th < max_th <= limit_packets:
            raise ConfigurationError(
                f"need 0 < min_th < max_th <= limit: {min_th}, {max_th}, {limit_packets}"
            )
        if rng is None:
            raise ConfigurationError("REDQueue requires the simulator rng")
        self.limit = limit_packets
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self.use_ecn = ecn
        self._random = rng.random
        self._queue: deque = deque()
        self._avg = 0.0
        self.drops = 0
        self.marks = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def average_occupancy(self) -> float:
        """Current EWMA of the queue occupancy."""
        return self._avg

    def _early_action_probability(self) -> float:
        if self._avg < self.min_th:
            return 0.0
        if self._avg >= self.max_th:
            return 1.0
        return self.max_p * (self._avg - self.min_th) / (self.max_th - self.min_th)

    def push(self, packet: Packet) -> bool:
        """Enqueue with RED early drop/mark; returns False on drop."""
        self._avg = (1 - self.weight) * self._avg + self.weight * len(self._queue)
        if len(self._queue) >= self.limit:
            self.drops += 1
            return False
        p = self._early_action_probability()
        if p > 0.0 and self._random() < p:
            if self.use_ecn and packet.ecn_capable:
                packet.ecn_ce = True
                self.marks += 1
            else:
                self.drops += 1
                return False
        self._queue.append(packet)
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def occupancy(self) -> int:
        """Current number of queued packets."""
        return len(self._queue)
