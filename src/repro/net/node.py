"""Topology nodes: hosts and switches.

Forwarding is source-routed (see :mod:`repro.net.packet`), so nodes carry no
routing tables; they exist to give links endpoints, to let topologies
enumerate their elements, and to let the energy models attribute power to
hosts and switches.
"""

from __future__ import annotations

from typing import List


class Node:
    """Base topology node."""

    _next_id = 0

    def __init__(self, name: str):
        self.id = Node._next_id
        Node._next_id += 1
        self.name = name
        #: Links whose source is this node (filled by Network.link()).
        self.egress: List = []
        #: Links whose destination is this node.
        self.ingress: List = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: terminates flows and burns CPU power per Eq. (2)."""


class Switch(Node):
    """A switch/router: forwards packets and burns port power."""
