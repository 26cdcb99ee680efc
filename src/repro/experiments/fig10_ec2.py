"""Fig. 10 — the EC2 virtual-cloud comparison: TCP, DCTCP, LIA, DTS.

40 instances with four 256 Mbps ENIs across four subnets, one connection
per host, 10 GB each. The paper's claims: the multipath algorithms save up
to ~70% of the single-path algorithms' aggregated energy (they use all
four ENIs, finishing ~4x faster on the same mostly-static host power), and
DTS performs similarly to LIA in this benign datacenter network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.fluidsim import FluidNetwork, FluidSimulation, run_metrics
from repro.topology.ec2 import Ec2Cloud

#: (label, algorithm, subflows) triples of the paper's Fig. 10.
FIG10_CONFIGS = [
    ("tcp", "reno", 1),
    ("dctcp", "dctcp", 1),
    ("lia", "lia", 4),
    ("dts", "dts", 4),
]


@dataclass
class Fig10Row:
    label: str
    aggregate_goodput_bps: float
    energy_per_gb: float
    host_energy_j: float
    switch_energy_j: float


@dataclass
class Fig10Result:
    rows: List[Fig10Row]

    def by_label(self) -> Dict[str, Fig10Row]:
        return {r.label: r for r in self.rows}

    def saving_vs(self, baseline: str, candidate: str) -> float:
        table = self.by_label()
        base = table[baseline].energy_per_gb
        return (base - table[candidate].energy_per_gb) / base


def run(
    *,
    n_hosts: int = 40,
    duration: float = 20.0,
    dt: float = 0.002,
    seed: int = 1,
    configs: Optional[List] = None,
) -> Fig10Result:
    """Run the Fig. 10 comparison on the EC2 topology.

    The paper transfers 10 GB per connection; here connections are
    long-lived over ``duration`` and energy is reported per delivered GB,
    which is the same quantity for steady-state transfers.
    """
    rows: List[Fig10Row] = []
    for label, algorithm, n_subflows in (configs or FIG10_CONFIGS):
        net = FluidNetwork.permutation(Ec2Cloud(n_hosts=n_hosts), algorithm,
                                       n_subflows=n_subflows, seed=seed)
        sim = FluidSimulation(net, dt=dt, seed=seed)
        m = run_metrics(sim, sim.run(duration))
        rows.append(Fig10Row(label, m["aggregate_goodput_bps"], m["energy_per_gb"],
                             m["host_energy_j"], m["switch_energy_j"]))
    return Fig10Result(rows=rows)


def table(result: Fig10Result) -> str:
    """The Fig. 10 comparison."""
    return "\n".join([
        format_table(
            ["config", "goodput (Gbps)", "J per GB", "host E (J)", "switch E (J)"],
            [[r.label, r.aggregate_goodput_bps / 1e9, r.energy_per_gb,
              r.host_energy_j, r.switch_energy_j] for r in result.rows]),
        "",
        f"DTS saving vs TCP: {100*result.saving_vs('tcp', 'dts'):.1f}%  "
        f"vs DCTCP: {100*result.saving_vs('dctcp', 'dts'):.1f}%  "
        f"LIA-vs-DTS gap: {100*result.saving_vs('lia', 'dts'):.1f}%",
    ])
