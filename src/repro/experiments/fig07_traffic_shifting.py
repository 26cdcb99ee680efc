"""Fig. 7 — how the existing algorithms shift traffic under Pareto bursts.

The Fig. 5(b) scenario: each path is intermittently crushed by 45 Mbps
Pareto bursts, cycling the path pair through Bad-Bad/Bad-Good/Good-Good/
Good-Bad states. The paper finds LIA outperforms the other three existing
algorithms at traffic shifting in this harsh test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.energy.accounting import ConnectionEnergyMeter
from repro.energy.cpu import default_wired_host
from repro.topology.dumbbell import build_traffic_shifting
from repro.units import mb, mbps

FIG7_ALGORITHMS = ["lia", "olia", "balia", "ecmtcp"]


@dataclass
class Fig07Row:
    algorithm: str
    goodput_bps: float
    completion_time: Optional[float]
    energy_j: float
    loss_events: int
    retransmissions: int


@dataclass
class Fig07Result:
    rows: List[Fig07Row]

    def by_algorithm(self) -> Dict[str, Fig07Row]:
        return {r.algorithm: r for r in self.rows}


def run(
    *,
    algorithms: Optional[List[str]] = None,
    transfer_bytes: int = mb(64),
    mean_burst_interval: float = 4.0,
    mean_burst_duration: float = 3.0,
    seeds: Optional[List[int]] = None,
    timeout: float = 900.0,
) -> Fig07Result:
    """Run the Fig. 7 comparison (results averaged over ``seeds``).

    Defaults compress the paper's burst cadence (10 s gaps, 5 s bursts)
    so scaled-down transfers still traverse many path-state changes; pass
    ``mean_burst_interval=10, mean_burst_duration=5`` with a multi-GB
    transfer for the paper's exact cadence.
    """
    algs = algorithms if algorithms is not None else FIG7_ALGORITHMS
    seed_list = seeds if seeds is not None else [1, 2]
    model = default_wired_host()
    rows: List[Fig07Row] = []
    for alg in algs:
        goodputs, times, energies, losses, retx = [], [], [], [], []
        for seed in seed_list:
            scenario = build_traffic_shifting(
                algorithm=alg, transfer_bytes=transfer_bytes, seed=seed,
                mean_burst_interval=mean_burst_interval,
                mean_burst_duration=mean_burst_duration,
                burst_rate_bps=mbps(85), queue_packets=400,
            )
            conn = scenario.connection
            meter = ConnectionEnergyMeter(
                scenario.network.sim, conn, model, interval=0.1, n_subflows=2
            )
            scenario.start_all()
            scenario.network.run_until_complete([conn], timeout=timeout)
            meter.stop()
            goodputs.append(conn.aggregate_goodput_bps())
            times.append(conn.completion_time or timeout)
            energies.append(meter.energy_j)
            losses.append(conn.total_loss_events())
            retx.append(conn.total_retransmissions())
        n = len(seed_list)
        rows.append(
            Fig07Row(
                algorithm=alg,
                goodput_bps=sum(goodputs) / n,
                completion_time=sum(times) / n,
                energy_j=sum(energies) / n,
                loss_events=round(sum(losses) / n),
                retransmissions=round(sum(retx) / n),
            )
        )
    return Fig07Result(rows=rows)


def table(result: Fig07Result) -> str:
    """The Fig. 7 comparison."""
    return format_table(
        ["algorithm", "goodput (Mbps)", "completion (s)", "energy (J)",
         "loss events", "retransmits"],
        [[r.algorithm, r.goodput_bps / 1e6, r.completion_time, r.energy_j,
          r.loss_events, r.retransmissions] for r in result.rows],
    )
