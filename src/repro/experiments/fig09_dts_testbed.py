"""Fig. 9 — DTS vs LIA on the testbed scenario: up to 20% energy saving.

Same Fig. 5(b) scenario as Figs. 7-8, run to completion over several seeds;
the paper's claim is that DTS "can reduce energy consumption by up to 20%
compared to LIA" while "improv[ing] energy consumption without sacrificing
responsiveness".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.compare import relative_saving
from repro.analysis.report import format_table
from repro.energy.accounting import ConnectionEnergyMeter
from repro.energy.cpu import default_wired_host
from repro.topology.dumbbell import build_traffic_shifting
from repro.units import mb, mbps


@dataclass
class Fig09Run:
    seed: int
    energy_lia_j: float
    energy_dts_j: float
    goodput_lia_bps: float
    goodput_dts_bps: float

    @property
    def saving(self) -> float:
        return relative_saving(self.energy_lia_j, self.energy_dts_j)


@dataclass
class Fig09Result:
    runs: List[Fig09Run]

    @property
    def mean_saving(self) -> float:
        return sum(r.saving for r in self.runs) / len(self.runs)

    @property
    def max_saving(self) -> float:
        return max(r.saving for r in self.runs)

    @property
    def mean_goodput_ratio(self) -> float:
        return sum(r.goodput_dts_bps / r.goodput_lia_bps for r in self.runs) / len(self.runs)


def measure(algorithm, transfer_bytes: int, seed: int, timeout: float,
            mean_burst_interval: float = 4.0, mean_burst_duration: float = 3.0):
    """(energy J, goodput bps) of one metered transfer; ``algorithm`` is a
    registry name or a controller instance."""
    # Scaled equivalent of the paper's Fig. 5(b): denser burst cadence, a
    # burst rate that genuinely degrades the path, and bufferbloat-depth
    # queues so the delay signal DTS keys on actually appears.
    scenario = build_traffic_shifting(
        algorithm=algorithm, transfer_bytes=transfer_bytes, seed=seed,
        mean_burst_interval=mean_burst_interval,
        mean_burst_duration=mean_burst_duration,
        burst_rate_bps=mbps(85), queue_packets=400,
    )
    conn = scenario.connection
    meter = ConnectionEnergyMeter(
        scenario.network.sim, conn, default_wired_host(), interval=0.1, n_subflows=2
    )
    scenario.start_all()
    scenario.network.run_until_complete([conn], timeout=timeout)
    meter.stop()
    return meter.energy_j, conn.aggregate_goodput_bps()


def run(
    *,
    transfer_bytes: int = mb(64),
    seeds: Optional[List[int]] = None,
    timeout: float = 900.0,
) -> Fig09Result:
    """Run the paired LIA/DTS comparison over several burst patterns."""
    seed_list = seeds if seeds is not None else [1, 2, 3, 4]
    runs: List[Fig09Run] = []
    for seed in seed_list:
        e_lia, g_lia = measure("lia", transfer_bytes, seed, timeout)
        e_dts, g_dts = measure("dts", transfer_bytes, seed, timeout)
        runs.append(Fig09Run(seed, e_lia, e_dts, g_lia, g_dts))
    return Fig09Result(runs=runs)


def table(result: Fig09Result) -> str:
    """The paired comparison."""
    rows = [
        [r.seed, r.energy_lia_j, r.energy_dts_j, 100 * r.saving,
         r.goodput_lia_bps / 1e6, r.goodput_dts_bps / 1e6]
        for r in result.runs
    ]
    return "\n".join([
        format_table(["seed", "E lia (J)", "E dts (J)", "saving (%)",
                      "lia (Mbps)", "dts (Mbps)"], rows),
        "",
        f"mean saving {100*result.mean_saving:.1f}%  "
        f"max {100*result.max_saving:.1f}%  "
        f"goodput ratio {result.mean_goodput_ratio:.3f}",
    ])
