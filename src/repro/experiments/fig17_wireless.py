"""Fig. 17 — heterogeneous wireless: DTS (with phi) vs LIA.

The ns-2 scenario: WiFi (10 Mbps / 40 ms) + 4G (20 Mbps / 100 ms) paths,
50-packet DropTail queues, 64 KB receive buffer, cross traffic on both
links, an infinite FTP source, 200 s runs. Claims: DTS saves up to 30%
energy vs LIA, validating the compensative parameter, with a visible
energy/throughput tradeoff.

Energy is the Section III host model (wireless path power rising with
throughput and RTT) integrated over the fixed run — LIA keeps the bursty,
delay-inflated 4G path's queue full (high RTT factor, many
retransmissions), which is exactly what the DTS factor and the phi drain
avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.compare import relative_saving
from repro.analysis.report import format_table
from repro.energy.accounting import ConnectionEnergyMeter
from repro.energy.cpu import HostPowerModel, WirelessPathPower
from repro.topology.wireless import build_wireless

FIG17_ALGORITHMS = ["lia", "dts", "dts-ext"]


def wireless_host_model() -> HostPowerModel:
    """Sender-device power model for the wireless scenario.

    The RTT coefficient is steeper than the wired default: on a radio
    interface the energy cost of a byte scales with how long the radio
    stays in its active state, which path delay directly inflates (the
    mechanism behind both Fig. 4 and the LTE tail energies of Huang et
    al.) — this is the path-cost asymmetry the compensative parameter
    exists to exploit.
    """
    return HostPowerModel(
        path_model=WirelessPathPower(rtt_coefficient=1.0, rtt_reference=0.050),
        idle_w=0.5,
        subflow_overhead_w=0.15,
    )


@dataclass
class Fig17Row:
    algorithm: str
    goodput_bps: float
    energy_j: float
    mean_power_w: float
    loss_events: int
    retransmissions: int
    per_seed_energy_j: List[float]


@dataclass
class Fig17Result:
    rows: List[Fig17Row]

    def by_algorithm(self) -> Dict[str, Fig17Row]:
        return {r.algorithm: r for r in self.rows}

    def energy_saving(self, *, baseline: str = "lia", candidate: str = "dts") -> float:
        table = self.by_algorithm()
        return relative_saving(table[baseline].energy_j, table[candidate].energy_j)

    def best_case_saving(self, *, baseline: str = "lia", candidate: str = "dts") -> float:
        """Best per-seed saving — the paper's "up to X%" reading."""
        table = self.by_algorithm()
        base = table[baseline]
        cand = table[candidate]
        savings = [
            relative_saving(b, c)
            for b, c in zip(base.per_seed_energy_j, cand.per_seed_energy_j)
        ]
        return max(savings)

    def throughput_ratio(self, *, baseline: str = "lia", candidate: str = "dts") -> float:
        table = self.by_algorithm()
        return table[candidate].goodput_bps / table[baseline].goodput_bps


def run(
    *,
    algorithms: Optional[List[str]] = None,
    duration: float = 60.0,
    seeds: Optional[List[int]] = None,
    kappa: float = 2e-3,
) -> Fig17Result:
    """Run the wireless comparison. Paper scale: ``duration=200``."""
    algs = algorithms if algorithms is not None else FIG17_ALGORITHMS
    seed_list = seeds if seeds is not None else [1, 2, 3]
    model = wireless_host_model()
    rows: List[Fig17Row] = []
    for alg in algs:
        goodputs, energies, powers, losses, retx = [], [], [], [], []
        for seed in seed_list:
            kwargs = None
            if alg == "dts-ext":
                # Price tuned for this scenario: the delay-cost reference
                # sits between the WiFi (80 ms) and 4G (200 ms) floors so
                # only the expensive radio is taxed.
                kwargs = {
                    "kappa": kappa,
                    "gamma": 0.3,
                    "delay_cost_weight": 2.0,
                    "delay_cost_reference": 0.1,
                }
            scenario = build_wireless(
                algorithm=alg, transfer_bytes=None, seed=seed,
                controller_kwargs=kwargs,
            )
            conn = scenario.connection
            meter = ConnectionEnergyMeter(
                scenario.network.sim, conn, model, interval=0.1, n_subflows=2
            )
            scenario.start_all()
            scenario.network.run(until=duration)
            goodputs.append(conn.aggregate_goodput_bps(elapsed=duration))
            energies.append(meter.energy_j)
            powers.append(meter.mean_power_w)
            losses.append(conn.total_loss_events())
            retx.append(conn.total_retransmissions())
        n = len(seed_list)
        rows.append(
            Fig17Row(
                algorithm=alg,
                goodput_bps=sum(goodputs) / n,
                energy_j=sum(energies) / n,
                mean_power_w=sum(powers) / n,
                loss_events=round(sum(losses) / n),
                retransmissions=round(sum(retx) / n),
                per_seed_energy_j=list(energies),
            )
        )
    return Fig17Result(rows=rows)


def table(result: Fig17Result) -> str:
    """The Fig. 17 comparison."""
    return "\n".join([
        format_table(
            ["algorithm", "goodput (Mbps)", "energy (J)", "power (W)",
             "losses", "retransmits"],
            [[r.algorithm, r.goodput_bps / 1e6, r.energy_j, r.mean_power_w,
              r.loss_events, r.retransmissions] for r in result.rows]),
        "",
        f"dts saving vs lia: mean {100*result.energy_saving():.1f}%, "
        f"best seed {100*result.best_case_saving():.1f}%  "
        f"throughput ratio: {result.throughput_ratio():.3f}",
    ])
