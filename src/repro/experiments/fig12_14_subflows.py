"""Figs. 12-14 — energy overhead of LIA vs subflow count, per topology.

The paper's htsim experiments: 128-host FatTree/VL2 and BCube, each host
sending one long-lived MPTCP flow (LIA) to a random other host; for each
subflow count the average energy overhead is recorded over ten runs.
Claims: more subflows *reduce* energy overhead in BCube (Fig. 12) but
*fail to save energy* in FatTree (Fig. 13) and VL2 (Fig. 14).

Energy overhead here is joules per delivered gigabyte (host + switch
energy over goodput), the natural reading of "energy overhead" for
fixed-duration long-lived flows.

Every (subflow count, seed) point is one :class:`repro.campaign.RunSpec`
submitted through :class:`repro.campaign.CampaignExecutor`, so sweeps
can fan out over processes (``jobs=4``) and reuse cached points — the
serial path (``jobs=1``, no cache) computes the identical numbers.

Scaling note (DESIGN.md): link delays default to 1 ms instead of the
paper's 100 ms so the dynamics converge within seconds of simulated time;
``link_delay`` and ``duration`` accept the paper's values for full-scale
runs. BCube defaults to BCube(4, 2) — 64 hosts, 48 switches, 3 NICs per
host — the closest BCube shape to the paper's quoted counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.report import format_table
from repro.campaign import subflow_sweep_campaign
from repro.errors import SimulationError
from repro.units import ms

if TYPE_CHECKING:
    from repro.campaign import CampaignTelemetry, ResultCache


@dataclass
class SubflowPoint:
    n_subflows: int
    energy_per_gb: float
    aggregate_goodput_bps: float
    host_energy_j: float
    switch_energy_j: float


@dataclass
class SubflowSweepResult:
    topology: str
    points: List[SubflowPoint]

    def energy_series(self) -> Dict[int, float]:
        return {p.n_subflows: p.energy_per_gb for p in self.points}


def run_sweep(
    *,
    topology_name: str,
    subflow_counts: Optional[List[int]] = None,
    algorithm: str = "lia",
    duration: float = 30.0,
    dt: float = 0.004,
    seeds: Optional[List[int]] = None,
    link_delay: float = ms(1),
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    run_timeout: Optional[float] = None,
) -> SubflowSweepResult:
    """Sweep the subflow count on one topology (averaged over seeds).

    Paper scale: ``duration=1000`` with 100 ms links and ten seeds.

    Each (subflow count, seed) point becomes a ``RunSpec`` executed
    through the campaign executor: ``jobs`` fans the points out over
    worker processes and ``cache``/``telemetry`` plug in the campaign
    result store and JSONL run log.
    """
    from repro.campaign import CampaignExecutor

    counts = subflow_counts if subflow_counts is not None else [1, 2, 4, 8]
    seed_list = seeds if seeds is not None else [1, 2]

    campaign = subflow_sweep_campaign(
        [topology_name], subflow_counts=counts, seeds=seed_list,
        algorithm=algorithm, duration=duration, dt=dt, link_delay=link_delay)
    executor = CampaignExecutor(jobs=jobs, cache=cache, telemetry=telemetry,
                                run_timeout=run_timeout)
    outcomes = executor.run(campaign.runs, campaign_name=campaign.name)
    return sweep_result_from_outcomes(topology_name, counts, seed_list, outcomes)


def sweep_result_from_outcomes(topology_name, counts, seeds,
                               outcomes) -> SubflowSweepResult:
    """Aggregate campaign outcomes (ordered subflow-count-major, then
    seed) into the per-point seed averages the figures plot."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise SimulationError(
            f"{len(failed)}/{len(outcomes)} sweep runs failed; first: "
            f"{first.spec.topology} n_subflows={first.spec.n_subflows} "
            f"seed={first.spec.seed}: {first.error}")

    points: List[SubflowPoint] = []
    n = len(seeds)
    for block, nsub in enumerate(counts):
        metrics = [outcomes[block * n + k].metrics for k in range(n)]
        points.append(
            SubflowPoint(
                n_subflows=nsub,
                energy_per_gb=sum(m["energy_per_gb"] for m in metrics) / n,
                aggregate_goodput_bps=sum(m["aggregate_goodput_bps"]
                                          for m in metrics) / n,
                host_energy_j=sum(m["host_energy_j"] for m in metrics) / n,
                switch_energy_j=sum(m["switch_energy_j"] for m in metrics) / n,
            )
        )
    return SubflowSweepResult(topology=topology_name, points=points)


def run_fig12(**kwargs) -> SubflowSweepResult:
    """Fig. 12: BCube — energy overhead should fall with subflows."""
    return run_sweep(topology_name="bcube", **kwargs)


def run_fig13(**kwargs) -> SubflowSweepResult:
    """Fig. 13: FatTree — subflows should not keep saving energy."""
    return run_sweep(topology_name="fattree", **kwargs)


def run_fig14(**kwargs) -> SubflowSweepResult:
    """Fig. 14: VL2 — subflows should not save energy."""
    return run_sweep(topology_name="vl2", **kwargs)


def table(result: SubflowSweepResult) -> str:
    """One sweep: energy overhead and goodput per subflow count."""
    return f"topology: {result.topology}\n" + format_table(
        ["subflows", "J per GB", "goodput (Gbps)"],
        [[p.n_subflows, p.energy_per_gb, p.aggregate_goodput_bps / 1e9]
         for p in result.points],
    )
