"""Fig. 15 — the compensative parameter phi in hierarchical topologies.

FatTree and VL2 with 8 subflows per connection; LIA vs DTS vs extended DTS
(the Eq. 9 model with the energy price). The paper reports "up to 20%"
energy saving from the phi term. Switches here are energy-proportional
with sleeping ports (``port_idle_w = 0``) per the adaptive power
management the price is derived from (Section V.C's refs [22, 23]) —
phi's whole purpose is to let the network right-size around the reduced
queue/retransmission load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional

from repro.analysis.report import format_table
from repro.campaign.spec import build_topology
from repro.energy.switch import SwitchPowerModel
from repro.fluidsim import FluidNetwork, FluidSimulation, run_metrics

FIG15_ALGORITHMS = ["lia", "dts", "dts-ext"]


@dataclass
class Fig15Row:
    """A grid point, then seed means of the :func:`run_metrics` keys so named."""

    topology: str
    algorithm: str
    energy_per_gb: float
    aggregate_goodput_bps: float
    host_energy_j: float
    switch_energy_j: float
    loss_events: float


@dataclass
class Fig15Result:
    rows: List[Fig15Row]

    def energy(self, topology: str, algorithm: str) -> float:
        for r in self.rows:
            if r.topology == topology and r.algorithm == algorithm:
                return r.energy_per_gb
        raise KeyError((topology, algorithm))

    def goodput(self, topology: str, algorithm: str) -> float:
        for r in self.rows:
            if r.topology == topology and r.algorithm == algorithm:
                return r.aggregate_goodput_bps
        raise KeyError((topology, algorithm))

    def saving(self, topology: str, *, baseline: str = "lia",
               candidate: str = "dts-ext") -> float:
        base = self.energy(topology, baseline)
        return (base - self.energy(topology, candidate)) / base


def proportional_switch_model() -> SwitchPowerModel:
    """Energy-proportional switches with sleeping idle ports."""
    return SwitchPowerModel(chassis_w=10.0, port_idle_w=0.0, port_max_w=1.5)


def run(
    *,
    topologies: Optional[List[str]] = None,
    algorithms: Optional[List[str]] = None,
    n_subflows: int = 8,
    duration: float = 30.0,
    dt: float = 0.004,
    seeds: Optional[List[int]] = None,
    kappa: float = 5e-5,
) -> Fig15Result:
    """Run the Fig. 15 grid (energy) — Fig. 16 reads the same rows'
    goodput column."""
    topos = topologies if topologies is not None else ["fattree", "vl2"]
    algs = algorithms if algorithms is not None else FIG15_ALGORITHMS
    seed_list = seeds if seeds is not None else [1, 2]
    rows: List[Fig15Row] = []
    for topo_name in topos:
        for alg in algs:
            runs = []
            for seed in seed_list:
                net = FluidNetwork.permutation(
                    build_topology(topo_name), alg, n_subflows=n_subflows,
                    seed=seed,
                    algorithm_kwargs={"kappa": kappa} if alg == "dts-ext" else None)
                sim = FluidSimulation(
                    net, dt=dt, seed=seed, switch_power=proportional_switch_model()
                )
                runs.append(run_metrics(sim, sim.run(duration)))
            rows.append(Fig15Row(
                topology=topo_name,
                algorithm=alg,
                **{f.name: sum(m[f.name] for m in runs) / len(runs)
                   for f in fields(Fig15Row)[2:]}))
    return Fig15Result(rows=rows)


def table(result: Fig15Result) -> str:
    """The Fig. 15 grid."""
    return "\n".join([format_table(
        ["topology", "algorithm", "J per GB", "goodput (Gbps)",
         "host E (J)", "switch E (J)", "losses"],
        [[r.topology, r.algorithm, r.energy_per_gb,
          r.aggregate_goodput_bps / 1e9, r.host_energy_j,
          r.switch_energy_j, r.loss_events] for r in result.rows],
    )] + [f"{topo}: dts-ext saving vs lia = {100*result.saving(topo):.1f}%"
          for topo in ("fattree", "vl2")])
