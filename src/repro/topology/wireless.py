"""Heterogeneous wireless scenario (ns-2.35 substitute) — Fig. 17.

The paper's ns-2 setup: a sender with WiFi and 4G interfaces transmits to a
receiver; WiFi path 10 Mbps / 40 ms, 4G path 20 Mbps / 100 ms; DropTail
queues limited to 50 packets; 64 KB receive buffer; cross traffic on both
links; an infinite FTP source; 200 s simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.algorithms import create_controller
from repro.net.mptcp import MptcpConnection
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.net.routing import Route
from repro.units import kib, mbps, ms
from repro.workloads.pareto_bursts import ParetoBurstSource


@dataclass
class HeterogeneousWirelessScenario:
    """Realized WiFi+4G network with one MPTCP connection and cross traffic."""

    network: Network
    connection: MptcpConnection
    wifi_route: Route
    cellular_route: Route
    cross_sources: List[ParetoBurstSource]

    def start_all(self) -> None:
        """Start the MPTCP flow and the cross-traffic sources."""
        self.connection.start()
        for src in self.cross_sources:
            src.start()


def build_wireless(
    *,
    algorithm: str,
    transfer_bytes: Optional[int] = None,
    wifi_bps: float = mbps(10),
    wifi_delay: float = ms(40),
    cellular_bps: float = mbps(20),
    cellular_delay: float = ms(100),
    queue_packets: int = 50,
    rcv_buffer_bytes: Optional[int] = kib(64),
    wifi_loss: float = 0.0005,
    cellular_loss: float = 0.0002,
    cross_fraction: float = 0.4,
    seed: Optional[int] = None,
    controller_kwargs: Optional[dict] = None,
) -> HeterogeneousWirelessScenario:
    """Build the Fig. 17 scenario.

    ``cross_fraction`` scales the burst cross traffic to that fraction of
    each link's capacity ("we generate cross traffic on both links to
    simulate a dynamic wireless network environment"). Random per-packet
    loss models wireless corruption on top of congestion drops.
    """
    net = Network(seed=seed)
    sender = net.add_host("sender")
    receiver = net.add_host("receiver")
    ap = net.add_switch("wifi_ap")
    bs = net.add_switch("cell_bs")

    qf = lambda: DropTailQueue(limit_packets=queue_packets)
    # The AP/BS -> receiver hop is the shared wireless bottleneck (rate,
    # delay, corruption loss); the sender-side hop is fat so the MPTCP flow
    # and the cross traffic contend in the same DropTail queue.
    net.link(sender, ap, rate_bps=wifi_bps * 10, delay=wifi_delay / 2, queue_factory=qf)
    net.link(ap, receiver, rate_bps=wifi_bps, delay=wifi_delay / 2,
             queue_factory=qf, loss_rate=wifi_loss)
    net.link(sender, bs, rate_bps=cellular_bps * 10, delay=cellular_delay / 2,
             queue_factory=qf)
    net.link(bs, receiver, rate_bps=cellular_bps, delay=cellular_delay / 2,
             queue_factory=qf, loss_rate=cellular_loss)

    wifi_route = net.route([sender, ap, receiver])
    cellular_route = net.route([sender, bs, receiver])

    controller = create_controller(algorithm, **(controller_kwargs or {}))
    conn = net.connection(
        [wifi_route, cellular_route],
        controller,
        total_bytes=transfer_bytes,
        rcv_buffer_bytes=rcv_buffer_bytes,
        name="wireless-mptcp",
    )

    cross_sources = []
    hops = (("wifi", ap, wifi_bps), ("cell", bs, cellular_bps)) if cross_fraction > 0 else ()
    for label, first_hop, rate in hops:
        csrc = net.add_host(f"cross_src_{label}")
        net.link(csrc, first_hop, rate_bps=rate * 10, delay=ms(1))
        # Cross traffic funnels through the same AP/BS -> receiver
        # bottleneck queue as the MPTCP subflow (its packets carry their own
        # null sink, so nothing is delivered to the receiver application).
        cross_route = net.route([csrc, first_hop, receiver])
        cross_sources.append(
            ParetoBurstSource(
                net.sim,
                cross_route,
                rate_bps=rate * cross_fraction,
                mean_interval=10.0,
                mean_duration=5.0,
            )
        )
    return HeterogeneousWirelessScenario(net, conn, wifi_route, cellular_route, cross_sources)
