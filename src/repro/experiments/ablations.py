"""Ablations of three constants the paper fixes without a sweep.

- :func:`run_epsilon` — the DTS sigmoid's slope (Eq. 5 uses 10) on the
  Fig. 9 testbed scenario: too gentle a slope stops shifting traffic, too
  steep a slope overreacts; the published constant should sit near the knee.
- :func:`run_taylor` — Algorithm 1's integer cubic against the exact
  sigmoid: pointwise error over the baseRTT/RTT ratio, and the end-to-end
  effect of running DTS with the kernel's fixed-point form.
- :func:`run_kappa` — the energy-price weight kappa (Eq. 7) on the Fig. 17
  WiFi+4G scenario: kappa = 0 is plain DTS, and a growing kappa drains the
  expensive path harder, tracing the energy/throughput frontier.

Each returns an :class:`Ablation`; the rows judging them are in
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.algorithms.dts import DtsController
from repro.analysis.report import format_table
from repro.core.dts import DtsFactorConfig, taylor_absolute_error
from repro.energy.cpu import default_wired_host
from repro.experiments import fig09_dts_testbed, fig17_wireless
from repro.experiments.common import MeasuredTransfer, meter_and_run
from repro.net import Network
from repro.net.queues import DropTailQueue
from repro.units import mb, mbps, ms


@dataclass
class Ablation:
    """One knob swept on one scenario: energy and goodput per setting, plus
    any scalar the sweep measures besides."""

    knob: str
    energy_j: Dict
    goodput_bps: Dict
    extra: Dict[str, float] = field(default_factory=dict)


def run_epsilon() -> Ablation:
    """Eq. 5's slope in {2, 10, 40}, one 48 MB transfer each (seed 2)."""
    energy, goodput = {}, {}
    for slope in (2.0, 10.0, 40.0):
        controller = DtsController(factor=DtsFactorConfig(slope=slope))
        energy[slope], goodput[slope] = fig09_dts_testbed.measure(
            controller, mb(48), 2, 600.0)
    return Ablation("slope", energy, goodput)


def _taylor_transfer(use_taylor: bool) -> MeasuredTransfer:
    net = Network(seed=4)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for i in range(2):
        s = net.add_switch(f"s{i}")
        net.link(a, s, rate_bps=mbps(100), delay=ms(5),
                 queue_factory=lambda: DropTailQueue(limit_packets=200))
        net.link(s, b, rate_bps=mbps(100), delay=ms(5),
                 queue_factory=lambda: DropTailQueue(limit_packets=200))
        routes.append(net.route([a, s, b]))
    conn = net.connection(
        routes, DtsController(factor=DtsFactorConfig(use_taylor=use_taylor)),
        total_bytes=mb(16),
    )
    return meter_and_run(net, conn, default_wired_host(), timeout=120.0,
                         n_subflows=2)


def run_taylor() -> Ablation:
    """Exact vs Taylor epsilon: the largest pointwise error on ratio bands
    (u = 10 (ratio - 1/2)), and one 16 MB two-path transfer with each."""
    errors = {k: taylor_absolute_error(k / 100) for k in range(5, 101)}

    def worst(lo: int, hi: int) -> float:
        return max(e for k, e in errors.items() if lo <= k <= hi)

    runs = {form: _taylor_transfer(form == "taylor") for form in ("exact", "taylor")}
    return Ablation(
        "epsilon", {f: m.energy_j for f, m in runs.items()},
        {f: m.goodput_bps for f, m in runs.items()},
        extra={"max error, ratio 0.45-0.55": worst(45, 55),
               "max error, ratio 0.35-0.65": worst(35, 65),
               "max error, ratio 0.05-1": worst(5, 100)})


def run_kappa() -> Ablation:
    """kappa in {0, 5e-4, 2e-3, 8e-3}: Fig. 17's scenario, 40 s, seeds 1-2."""
    energy, goodput = {}, {}
    for kappa in (0.0, 5e-4, 2e-3, 8e-3):
        row = fig17_wireless.run(algorithms=["dts-ext" if kappa else "dts"],
                                 duration=40.0, seeds=[1, 2], kappa=kappa).rows[0]
        energy[kappa], goodput[kappa] = row.energy_j, row.goodput_bps
    return Ablation("kappa", energy, goodput)


def table(result: Ablation) -> str:
    """Energy and goodput per setting, then the extra scalars."""
    return "\n".join(
        [format_table([result.knob, "energy (J)", "goodput (Mbps)"],
                      [[k, result.energy_j[k], result.goodput_bps[k] / 1e6]
                       for k in result.energy_j])]
        + [f"{name}: {value:.4f}" for name, value in result.extra.items()])
