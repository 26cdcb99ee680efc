"""Routes: ordered link sequences between two hosts, with reverse paths."""

from __future__ import annotations

from typing import Sequence

from repro.errors import RoutingError
from repro.net.link import Link
from repro.net.node import Node


class Route:
    """A forward/reverse pair of link sequences between two hosts.

    A data packet travels ``forward``; the receiver's ACKs travel
    ``reverse``. Both directions exercise real queues, so ACK-path
    congestion is modelled.
    """

    __slots__ = ("forward", "reverse")

    def __init__(self, forward: Sequence[Link], reverse: Sequence[Link]):
        if not forward or not reverse:
            raise RoutingError("routes need at least one link in each direction")
        self._validate_contiguous(forward)
        self._validate_contiguous(reverse)
        if forward[0].src is not reverse[-1].dst or forward[-1].dst is not reverse[0].src:
            raise RoutingError("reverse path must mirror the forward path endpoints")
        self.forward = tuple(forward)
        self.reverse = tuple(reverse)

    @staticmethod
    def _validate_contiguous(links: Sequence[Link]) -> None:
        for a, b in zip(links, links[1:]):
            if a.dst is not b.src:
                raise RoutingError(f"discontiguous route: {a} then {b}")

    @property
    def src(self) -> Node:
        """Origin host of the forward direction."""
        return self.forward[0].src

    @property
    def dst(self) -> Node:
        """Destination host of the forward direction."""
        return self.forward[-1].dst

    def base_rtt(self) -> float:
        """Two-way propagation delay (zero-queue RTT floor), in seconds."""
        return sum(l.delay for l in self.forward) + sum(l.delay for l in self.reverse)

    def min_rate(self) -> float:
        """Bottleneck capacity of the forward direction, in bits/second."""
        return min(l.rate_bps for l in self.forward)

    def hops(self) -> int:
        """Number of forward-direction links."""
        return len(self.forward)

    def switch_hops(self) -> int:
        """Forward links whose *both* endpoints are switches (the set L' of
        Section V.C, where the energy price applies)."""
        from repro.net.node import Switch

        return sum(
            1 for l in self.forward if isinstance(l.src, Switch) and isinstance(l.dst, Switch)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [self.forward[0].src.name] + [l.dst.name for l in self.forward]
        return "<Route " + "->".join(names) + ">"
