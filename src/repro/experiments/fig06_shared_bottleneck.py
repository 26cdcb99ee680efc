"""Fig. 6 — per-user energy of LIA/OLIA/Balia/ecMTCP under resource pooling.

The paper's Fig. 5(a) scenario: N MPTCP users plus 2N TCP users share two
bottlenecks; each MPTCP user transfers 16 MB; box-whisker plots of per-user
energy for N in {10, 20, 50, 100}. Claim: OLIA (the Pareto-optimal one)
consumes the least energy, increasingly so at large N.

Per-user energy is the integral of that user's share of host power over its
own transfer window: a per-connection share of the host idle power plus the
connection's per-path marginal power (the client machine runs N parallel
senders, so RAPL energy divides across them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_table
from repro.analysis.stats import BoxStats, box_stats
from repro.energy.accounting import ConnectionEnergyMeter
from repro.energy.cpu import HostPowerModel, WiredPathPower
from repro.topology.dumbbell import build_shared_bottleneck
from repro.units import mb, mbps

#: Algorithms compared in the paper's Fig. 6.
FIG6_ALGORITHMS = ["lia", "olia", "balia", "ecmtcp"]


@dataclass
class Fig06Cell:
    """One box of Fig. 6: one algorithm at one N."""

    algorithm: str
    n_users: int
    energies_j: List[float]
    stats: BoxStats
    mean_goodput_bps: float


@dataclass
class Fig06Result:
    cells: List[Fig06Cell]

    def cell(self, algorithm: str, n_users: int) -> Fig06Cell:
        for c in self.cells:
            if c.algorithm == algorithm and c.n_users == n_users:
                return c
        raise KeyError((algorithm, n_users))

    def mean_energy(self, algorithm: str, n_users: int) -> float:
        return self.cell(algorithm, n_users).stats.mean


def _per_user_host_model(n_users: int) -> HostPowerModel:
    """A per-connection share of the sending machine's power."""
    return HostPowerModel(
        path_model=WiredPathPower(),
        idle_w=20.0 / max(n_users, 1),
        subflow_overhead_w=1.2,
    )


def run(
    *,
    algorithms: Optional[List[str]] = None,
    user_counts: Optional[List[int]] = None,
    transfer_bytes: int = mb(2),
    bottleneck_bps: float = mbps(100),
    seed: int = 1,
    timeout: float = 600.0,
) -> Fig06Result:
    """Run the Fig. 6 grid. Paper scale: ``user_counts=[10, 20, 50, 100]``,
    ``transfer_bytes=mb(16)``."""
    algs = algorithms if algorithms is not None else FIG6_ALGORITHMS
    counts = user_counts if user_counts is not None else [4, 8]
    cells: List[Fig06Cell] = []
    for n_users in counts:
        for alg in algs:
            scenario = build_shared_bottleneck(
                n_mptcp=n_users,
                algorithm=alg,
                transfer_bytes=transfer_bytes,
                bottleneck_bps=bottleneck_bps,
                seed=seed,
            )
            model = _per_user_host_model(n_users)
            meters = [
                ConnectionEnergyMeter(
                    scenario.network.sim, conn, model, interval=0.1, n_subflows=2
                )
                for conn in scenario.mptcp_connections
            ]
            scenario.start_all()
            scenario.network.run_until_complete(
                scenario.mptcp_connections + scenario.tcp_connections,
                timeout=timeout,
            )
            energies = [m.energy_j for m in meters]
            goodputs = [
                c.aggregate_goodput_bps() for c in scenario.mptcp_connections
            ]
            cells.append(
                Fig06Cell(
                    algorithm=alg,
                    n_users=n_users,
                    energies_j=energies,
                    stats=box_stats(energies),
                    mean_goodput_bps=sum(goodputs) / len(goodputs),
                )
            )
    return Fig06Result(cells=cells)


def table(result: Fig06Result) -> str:
    """The Fig. 6 box summaries."""
    rows = []
    for c in result.cells:
        s = c.stats
        rows.append([c.n_users, c.algorithm, s.mean, s.q1, s.median, s.q3,
                     len(s.outliers), c.mean_goodput_bps / 1e6])
    return format_table(
        ["N", "algorithm", "mean E (J)", "Q1", "median", "Q3",
         "outliers", "goodput (Mbps)"],
        rows,
    )
