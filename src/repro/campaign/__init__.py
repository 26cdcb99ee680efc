"""Experiment-campaign runner: declarative specs, a content-addressed
result cache, a process-pool executor, and structured run telemetry.

The paper's evaluation is a large sweep — subflow counts 1-8 across
FatTree/BCube/VL2, ten seeds each, algorithm-by-algorithm comparisons —
and this package turns each point of such a sweep into a declarative,
hashable :class:`RunSpec` that can be executed in parallel, cached on
disk, and re-used across invocations::

    from repro.campaign import CampaignExecutor, ResultCache, RunSpec

    specs = [RunSpec(topology="bcube", n_subflows=n, seed=s)
             for n in (1, 2, 4, 8) for s in (1, 2)]
    executor = CampaignExecutor(jobs=4, cache=ResultCache(".repro-cache"))
    outcomes = executor.run(specs)      # ordered like ``specs``

From the command line::

    python -m repro campaign fig12 fig13 fig14 --jobs 4
    python -m repro sweep --topologies bcube --subflows 1 2 4 8 --jobs 4
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.campaign.cache import CacheStats, ResultCache
    from repro.campaign.executor import CampaignExecutor, RunOutcome, execute_run
    from repro.campaign.spec import (
        SCHEMA_VERSION,
        CampaignSpec,
        RunSpec,
        build_topology,
        ec2_sweep_campaign,
        figure_campaign,
        subflow_sweep_campaign,
    )
    from repro.campaign.telemetry import CampaignTelemetry, throughput_from_snapshot

# Resolved on first access (PEP 562): a process that builds specs loads no
# numpy, and one that runs a spec in-process loads neither the cache nor
# the telemetry writer.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.campaign.cache": ("CacheStats", "ResultCache"),
    "repro.campaign.executor": ("CampaignExecutor", "RunOutcome", "execute_run"),
    "repro.campaign.spec": (
        "SCHEMA_VERSION", "CampaignSpec", "RunSpec", "build_topology",
        "ec2_sweep_campaign", "figure_campaign", "subflow_sweep_campaign",
    ),
    "repro.campaign.telemetry": ("CampaignTelemetry", "throughput_from_snapshot"),
})

__all__ = [
    "SCHEMA_VERSION",
    "CacheStats",
    "CampaignExecutor",
    "CampaignSpec",
    "CampaignTelemetry",
    "ResultCache",
    "RunOutcome",
    "RunSpec",
    "build_topology",
    "ec2_sweep_campaign",
    "throughput_from_snapshot",
    "execute_run",
    "figure_campaign",
    "subflow_sweep_campaign",
]
