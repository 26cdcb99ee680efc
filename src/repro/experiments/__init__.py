"""One experiment module per figure of the paper's evaluation.

Every module exposes ``run(...)`` returning a structured result object
and ``table(result)`` rendering the figure's rows as an ASCII table;
``python -m repro figNN`` prints ``table(run())``. The paper's claims are rows of
:mod:`repro.experiments.claims`, which judges them on these results
(``python -m repro claims`` renders EXPERIMENTS.md); the ablations of
Eq. 5's slope, Algorithm 1's Taylor form and Eq. 7's kappa, Section V.A's
friendliness/responsiveness tradeoff and DWC's grouping are in
:mod:`repro.experiments.ablations`. Default parameters are scaled down to
finish in seconds; each ``run`` accepts the paper's full-scale parameters
(:mod:`repro.experiments.paper_scale`) for faithful reproduction runs.

Figure modules load on first use: this package imports none of them, so
``from repro.experiments import fig06_shared_bottleneck`` (a plain
submodule import) loads the packet simulator and no fluid figure, and a
fluid figure loads ``repro.fluidsim`` and no packet engine.  No figure
imports ``scipy.sparse`` (DESIGN.md §8).

========  ==========================================================
module    paper artifact
========  ==========================================================
fig01     Fig. 1  — CPU power vs number of subflows (TCP vs MPTCP)
fig02     Fig. 2  — Nexus 5 power: TCP/WiFi, TCP/LTE, MPTCP
fig03     Fig. 3  — energy & power vs throughput (Ethernet, WiFi)
fig04     Fig. 4  — power vs path delay at matched throughput
fig06     Fig. 6  — box-whisker energy, 4 algorithms x N users
fig07     Fig. 7  — traffic shifting under Pareto bursts
fig08     Fig. 8  — LIA vs modified-LIA (DTS) time traces
fig09     Fig. 9  — DTS vs LIA energy/throughput on the testbed
fig10     Fig. 10 — EC2: TCP, DCTCP, LIA, DTS
fig12_14  Figs. 12-14 — energy overhead vs subflows per topology
fig15     Fig. 15 — extended-DTS (phi) savings in FatTree/VL2
fig16     Fig. 16 — aggregate throughput in FatTree/VL2
fig17     Fig. 17 — heterogeneous wireless: DTS vs LIA
========  ==========================================================
"""

__all__ = [
    "ablations",
    "claims",
    "fig01_power_vs_subflows",
    "fig02_mobile_power",
    "fig03_energy_vs_throughput",
    "fig04_power_vs_delay",
    "fig06_shared_bottleneck",
    "fig07_traffic_shifting",
    "fig08_trace",
    "fig09_dts_testbed",
    "fig10_ec2",
    "fig12_14_subflows",
    "fig15_phi",
    "fig16_dc_throughput",
    "fig17_wireless",
    "paper_scale",
]
