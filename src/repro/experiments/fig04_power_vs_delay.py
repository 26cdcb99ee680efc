"""Fig. 4 — MPTCP power under different path delays at matched throughput.

The paper holds throughput fixed and inflates path delay (by raising
``num_subflows``, which it shows lengthens RTT) and observes that the flow
on high-RTT paths consumes more CPU power. Reproduction: identical
two-path transfers whose path propagation delays differ; the bottleneck
rate is the same, so both saturate to the same throughput while the power
model sees different RTTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy.cpu import HostPowerModel, default_wired_host
from repro.experiments.common import MeasuredTransfer, meter_and_run
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mb, mbps, ms, to_ms


@dataclass
class DelayPoint:
    path_delay_s: float
    measurement: MeasuredTransfer


@dataclass
class Fig04Result:
    points: List[DelayPoint]


def run(
    *,
    path_delays_ms: Optional[List[float]] = None,
    bottleneck_bps: float = mbps(30),
    transfer_bytes: int = mb(60),
    host_model: Optional[HostPowerModel] = None,
    seed: int = 1,
) -> Fig04Result:
    """Run the delay sweep (low vs high RTT at matched throughput).

    The bottleneck is sized well below what the windows can sustain at
    every delay so all configurations saturate to the *same* throughput —
    the paper's controlled variable — leaving RTT as the only difference
    the power model sees.
    """
    delays = path_delays_ms if path_delays_ms is not None else [20, 60, 120]
    model = host_model if host_model is not None else default_wired_host()
    points: List[DelayPoint] = []
    for i, d in enumerate(delays):
        net = Network(seed=seed + i)
        client = net.add_host("client")
        server = net.add_host("server")
        routes = []
        for p in range(2):
            sw = net.add_switch(f"s{p}")
            net.link(client, sw, rate_bps=bottleneck_bps, delay=ms(d) / 2,
                     queue_factory=lambda: DropTailQueue(limit_packets=400))
            net.link(sw, server, rate_bps=bottleneck_bps, delay=ms(d) / 2,
                     queue_factory=lambda: DropTailQueue(limit_packets=400))
            routes.append(net.route([client, sw, server]))
        conn = net.connection(routes, "lia", total_bytes=transfer_bytes)
        measured = meter_and_run(net, conn, model, n_subflows=2)
        points.append(DelayPoint(path_delay_s=ms(d), measurement=measured))
    return Fig04Result(points=points)


def table(result: Fig04Result) -> str:
    """The Fig. 4 rows."""
    rows = [
        [to_ms(p.path_delay_s), p.measurement.goodput_bps / 1e6,
         p.measurement.mean_power_w, p.measurement.energy_j]
        for p in result.points
    ]
    return format_table(
        ["path delay (ms)", "goodput (Mbps)", "power (W)", "energy (J)"], rows
    )
