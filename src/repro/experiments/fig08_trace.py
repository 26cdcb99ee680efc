"""Fig. 8 — time traces of LIA vs modified LIA (DTS) in the Fig. 5(b) scenario.

The paper traces throughput and power of LIA and its DTS-modified variant
through the bursty-path scenario, showing DTS "can save energy without
degrading its throughput".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import repro.obs as obs
from repro.analysis.report import format_table
from repro.analysis.timeseries import bin_series
from repro.energy.accounting import ConnectionEnergyMeter
from repro.energy.cpu import default_wired_host
from repro.net.monitor import FlowMonitor
from repro.topology.dumbbell import build_traffic_shifting
from repro.units import mbps


@dataclass
class Trace:
    algorithm: str
    times: List[float]
    goodput_bps: List[float]
    power_w: List[float]
    total_energy_j: float
    mean_goodput_bps: float


@dataclass
class Fig08Result:
    traces: Dict[str, Trace]


def _trace(algorithm: str, duration: float, seed: int, bin_width: float) -> Trace:
    scenario = build_traffic_shifting(
        algorithm=algorithm, transfer_bytes=None, seed=seed,
        mean_burst_interval=4.0, mean_burst_duration=3.0,
        burst_rate_bps=mbps(85), queue_packets=400,
    )
    conn = scenario.connection
    model = default_wired_host()
    monitor = FlowMonitor(scenario.network.sim, conn, interval=0.1)
    meter = ConnectionEnergyMeter(
        scenario.network.sim, conn, model, interval=0.1, n_subflows=2
    )
    scenario.start_all()
    scenario.network.run(until=duration)
    t_goodput, goodput = bin_series(monitor.times, monitor.goodput_bps, bin_width)
    t_power, power = bin_series(meter.times, meter.powers, bin_width)
    mean_goodput = (
        sum(monitor.goodput_bps) / len(monitor.goodput_bps)
        if monitor.goodput_bps else 0.0
    )
    return Trace(
        algorithm=algorithm,
        times=t_goodput,
        goodput_bps=goodput,
        power_w=power[: len(t_goodput)],
        total_energy_j=meter.energy_j,
        mean_goodput_bps=mean_goodput,
    )


def run(
    *,
    duration: float = 40.0,
    seed: int = 3,
    bin_width: float = 2.0,
) -> Fig08Result:
    """Trace LIA and DTS side by side (same seed => same burst pattern)."""
    obs.annotate(seed=seed, duration=duration, bin_width=bin_width)
    return Fig08Result(
        traces={
            "lia": _trace("lia", duration, seed, bin_width),
            "dts": _trace("dts", duration, seed, bin_width),
        }
    )


def table(result: Fig08Result) -> str:
    """The binned traces and summary."""
    lia, dts = result.traces["lia"], result.traces["dts"]
    rows: List[List] = []
    for i, t in enumerate(lia.times):
        row = [t, lia.goodput_bps[i] / 1e6]
        row.append(dts.goodput_bps[i] / 1e6 if i < len(dts.goodput_bps) else float("nan"))
        row.append(lia.power_w[i] if i < len(lia.power_w) else float("nan"))
        row.append(dts.power_w[i] if i < len(dts.power_w) else float("nan"))
        rows.append(row)
    return "\n".join([
        format_table(["t (s)", "lia Mbps", "dts Mbps", "lia W", "dts W"], rows),
        "",
        f"total energy: lia={lia.total_energy_j:.1f} J, dts={dts.total_energy_j:.1f} J",
        f"mean goodput: lia={lia.mean_goodput_bps/1e6:.1f} Mbps, "
        f"dts={dts.mean_goodput_bps/1e6:.1f} Mbps",
    ])
