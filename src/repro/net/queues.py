"""Egress queue discipline: DropTail with optional ECN marking.

Queues hold packets awaiting serialization on a link. The scenarios in the
paper use DropTail (the ns-2 wireless scenario sets a 50-packet DropTail
limit); ECN marking on DropTail is required by DCTCP.
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

