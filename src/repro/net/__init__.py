"""Packet-level discrete-event network simulator.

This subpackage is the substitute for the paper's MPTCP Linux-kernel testbed
and for the ns-2.35 scenarios: it implements links with finite-capacity
queues, full single-subflow TCP machinery (slow start, congestion avoidance,
duplicate-ACK fast retransmit and recovery, retransmission timeouts, ECN),
and an MPTCP connection layer that couples the congestion windows of its
subflows through a pluggable :class:`~repro.algorithms.base.CongestionController`.

The public entry point is :class:`~repro.net.network.Network`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.batch import (
        BatchConnection,
        BatchEngine,
        BatchPath,
        BatchScenario,
        ec2_scenario,
    )
    from repro.net.events import EventHandle, Simulator, TickCohorts
    from repro.net.flow import TcpReceiver, TcpSender
    from repro.net.link import Link
    from repro.net.monitor import FlowMonitor, LinkMonitor, PeriodicSampler
    from repro.net.mptcp import MptcpConnection
    from repro.net.network import Network
    from repro.net.node import Host, Node, Switch
    from repro.net.packet import Packet, PacketPool
    from repro.net.queues import DropTailQueue, EcnConfig
    from repro.net.routing import Route

# Resolved on first access (PEP 562): the scalar DES, the batch engine and
# ``repro.net.flow``'s users each load only their own modules.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.batch": (
        "BatchConnection", "BatchEngine", "BatchPath", "BatchScenario", "ec2_scenario",
    ),
    "repro.net.events": ("EventHandle", "Simulator", "TickCohorts"),
    "repro.net.flow": ("TcpReceiver", "TcpSender"),
    "repro.net.link": ("Link",),
    "repro.net.monitor": ("FlowMonitor", "LinkMonitor", "PeriodicSampler"),
    "repro.net.mptcp": ("MptcpConnection",),
    "repro.net.network": ("Network",),
    "repro.net.node": ("Host", "Node", "Switch"),
    "repro.net.packet": ("Packet", "PacketPool"),
    "repro.net.queues": ("DropTailQueue", "EcnConfig"),
    "repro.net.routing": ("Route",),
})

__all__ = [
    "BatchConnection",
    "BatchEngine",
    "BatchPath",
    "BatchScenario",
    "DropTailQueue",
    "TickCohorts",
    "ec2_scenario",
    "EcnConfig",
    "EventHandle",
    "FlowMonitor",
    "Host",
    "Link",
    "LinkMonitor",
    "MptcpConnection",
    "Network",
    "Node",
    "Packet",
    "PacketPool",
    "PeriodicSampler",
    "Route",
    "Simulator",
    "Switch",
    "TcpReceiver",
    "TcpSender",
]
