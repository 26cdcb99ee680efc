"""Workload generators: Pareto bursts, streaming sources, DC permutations."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.pareto_bursts import NullSink, ParetoBurstSource
    from repro.workloads.permutation import random_permutation_pairs
    from repro.workloads.streaming import StreamingSupply, attach_streaming_source

# Resolved on first access (PEP 562): the fluid tier's permutation pairing
# does not load the packet-engine sources beside it.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.pareto_bursts": ("NullSink", "ParetoBurstSource"),
    "repro.workloads.permutation": ("random_permutation_pairs",),
    "repro.workloads.streaming": ("StreamingSupply", "attach_streaming_source"),
})

__all__ = [
    "NullSink",
    "ParetoBurstSource",
    "StreamingSupply",
    "attach_streaming_source",
    "random_permutation_pairs",
]
