"""Fig. 16 — aggregate throughput in FatTree and VL2: DTS matches LIA.

Same runs as Fig. 15; the claim under test is that the energy savings of
DTS / extended DTS do not come at the cost of datacenter utilization
("our algorithm gets as good utilization as LIA").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import format_table
from repro.experiments.fig15_phi import Fig15Result, run as run_fig15


@dataclass
class Fig16Result:
    fig15: Fig15Result

    def goodput(self, topology: str, algorithm: str) -> float:
        return self.fig15.goodput(topology, algorithm)

    def throughput_ratio(self, topology: str, *, baseline: str = "lia",
                         candidate: str = "dts") -> float:
        return self.goodput(topology, candidate) / self.goodput(topology, baseline)


def run(**kwargs) -> Fig16Result:
    """Run (or reuse) the Fig. 15 grid and expose the throughput view."""
    return Fig16Result(fig15=run_fig15(**kwargs))


def from_fig15(result: Fig15Result) -> Fig16Result:
    """Wrap an existing Fig. 15 result without re-running."""
    return Fig16Result(fig15=result)


def table(result: Fig16Result) -> str:
    """The Fig. 16 throughput comparison."""
    rows: List[List] = []
    for r in result.fig15.rows:
        rows.append([r.topology, r.algorithm, r.aggregate_goodput_bps / 1e9])
    return "\n".join(
        [format_table(["topology", "algorithm", "goodput (Gbps)"], rows)]
        + [f"{topo}: dts/lia throughput ratio = {result.throughput_ratio(topo):.3f}"
           for topo in ("fattree", "vl2")])
