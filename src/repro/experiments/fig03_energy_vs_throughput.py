"""Fig. 3 — energy and power vs throughput of MPTCP.

(a) Wired Ethernet: the connection's available bandwidth sweeps 200 to
1000 Mbps (two NICs at half that each) while transferring a fixed amount of
data. The paper finds total energy *decreases* with throughput while power
*increases* gently (~15% across the sweep).

(b) WiFi: throughput sweeps 10 to 50 Mbps; power rises sharply (~90%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy.cpu import (
    HostPowerModel,
    default_wired_host,
    default_wireless_host,
)
from repro.experiments.common import MeasuredTransfer, meter_and_run
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mb, mbps, ms


@dataclass
class SweepPoint:
    bandwidth_bps: float
    measurement: MeasuredTransfer


@dataclass
class Fig03Result:
    wired: List[SweepPoint]
    wireless: List[SweepPoint]


def _run_point(
    bandwidth_bps: float,
    transfer_bytes: int,
    host_model: HostPowerModel,
    *,
    delay: float,
    seed: int,
) -> SweepPoint:
    net = Network(seed=seed)
    client = net.add_host("client")
    server = net.add_host("server")
    routes = []
    # Queues sized with the BDP so high-bandwidth paths are not strangled
    # by premature overflow during slow start.
    bdp_packets = int(bandwidth_bps / 2 * delay / (1500 * 8))
    queue_packets = max(100, bdp_packets)
    for i in range(2):
        sw = net.add_switch(f"s{i}")
        net.link(client, sw, rate_bps=bandwidth_bps / 2, delay=delay / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=queue_packets))
        net.link(sw, server, rate_bps=bandwidth_bps / 2, delay=delay / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=queue_packets))
        routes.append(net.route([client, sw, server]))
    conn = net.connection(routes, "lia", total_bytes=transfer_bytes)
    measured = meter_and_run(net, conn, host_model, n_subflows=2)
    return SweepPoint(bandwidth_bps=bandwidth_bps, measurement=measured)


def run(
    *,
    wired_bandwidths_mbps: Optional[List[float]] = None,
    wireless_bandwidths_mbps: Optional[List[float]] = None,
    wired_bytes: int = mb(60),
    wireless_bytes: int = mb(8),
    seed: int = 1,
) -> Fig03Result:
    """Run both sweeps. Paper scale: ``wired_bytes=gb(10)``,
    ``wireless_bytes=mb(500)``."""
    wired_bw = wired_bandwidths_mbps or [200, 400, 600, 800, 1000]
    wifi_bw = wireless_bandwidths_mbps or [10, 20, 30, 40, 50]
    wired_model = default_wired_host()
    wifi_model = default_wireless_host()
    wired = [
        _run_point(mbps(bw), wired_bytes, wired_model, delay=ms(10), seed=seed + i)
        for i, bw in enumerate(wired_bw)
    ]
    wireless = [
        _run_point(mbps(bw), wireless_bytes, wifi_model, delay=ms(30), seed=seed + 100 + i)
        for i, bw in enumerate(wifi_bw)
    ]
    return Fig03Result(wired=wired, wireless=wireless)


def table(result: Fig03Result) -> str:
    """The Fig. 3(a) and 3(b) series."""
    parts = []
    for label, points in (("3(a) Ethernet", result.wired), ("3(b) WiFi", result.wireless)):
        rows = [
            [p.bandwidth_bps / 1e6, p.measurement.goodput_bps / 1e6,
             p.measurement.mean_power_w, p.measurement.energy_j]
            for p in points
        ]
        parts += [f"Fig. {label}", format_table(
            ["bandwidth (Mbps)", "goodput (Mbps)", "power (W)", "energy (J)"], rows
        ), ""]
    return "\n".join(parts)
