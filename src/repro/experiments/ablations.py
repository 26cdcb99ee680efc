"""Ablations of three constants the paper fixes without a sweep, and two
comparisons across algorithms.

- :func:`run_epsilon` — the DTS sigmoid's slope (Eq. 5 uses 10) on the
  Fig. 9 testbed scenario: too gentle a slope stops shifting traffic, too
  steep a slope overreacts; the published constant should sit near the knee.
- :func:`run_taylor` — Algorithm 1's integer cubic against the exact
  sigmoid: pointwise error over the baseRTT/RTT ratio, and the end-to-end
  effect of running DTS with the kernel's fixed-point form.
- :func:`run_kappa` — the energy-price weight kappa (Eq. 7) on the Fig. 17
  WiFi+4G scenario: kappa = 0 is plain DTS, and a growing kappa drains the
  expensive path harder, tracing the energy/throughput frontier.
- :func:`run_responsiveness` — Section V.A's tradeoff between
  TCP-friendliness and responsiveness, on the bare Eq. 3 model.
- :func:`run_dwc` — DWC's shared-bottleneck detection against static
  coupling (LIA) and none (Reno) on the packet simulator.

The sweeps return an :class:`Ablation`, the comparisons a
:class:`ByAlgorithm`; the rows judging them are in
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.algorithms.dts import DtsController
from repro.analysis.report import format_table
from repro.core import check_condition1, decomposition, responsiveness, solve_equilibrium
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


@dataclass
class ByAlgorithm:
    """Named columns of one value per algorithm: ``columns[name][alg]``."""

    columns: Dict[str, Dict[str, float]]


def run_responsiveness() -> ByAlgorithm:
    """Cold-start settling time of the Eq. 3 model on two equal paths
    (50 ms, 1% loss, 300 s horizon) and Condition 1 at its equilibrium,
    per decomposed algorithm."""
    rtt, loss = [0.05, 0.05], [0.01, 0.01]
    settle, friendly = {}, {}
    for name in ("lia", "olia", "balia", "ecmtcp", "ewtcp", "coupled", "dts"):
        model = decomposition(name)
        settle[name] = responsiveness(model, rtt=rtt, loss=loss, x0=[1.0, 1.0],
                                      duration=300.0)
        eq = solve_equilibrium(model, np.array(rtt), np.array(loss))
        friendly[name] = float(check_condition1(model, eq.state).satisfied)
    return ByAlgorithm({"settle_s": settle, "friendly": friendly})


#: Simulated seconds per DWC run: the detector needs most of 30 s to settle
#: its groups.
DWC_DURATION = 30.0


def _dwc_disjoint_goodput(algorithm: str) -> float:
    """Two disjoint 100 Mbps bottlenecks, each also carrying one TCP flow.

    Coupled MPTCP (LIA) takes roughly one fair share in total; uncoupled
    per-path behaviour (Reno, or DWC once it sees the bottlenecks are
    distinct) takes a fair share on each path.  The paths differ in delay
    and queue: identical ones phase-lock their drop-tail loss episodes,
    which does look like a shared bottleneck to a correlation detector.
    """
    net = Network(seed=11)
    a, b = net.add_host("a"), net.add_host("b")
    tcp_host = net.add_host("t")
    routes, tcp_conns = [], []
    for i, (delay, queue) in enumerate(((ms(8), 90), (ms(18), 150))):
        s, s2 = net.add_switch(f"s{i}a"), net.add_switch(f"s{i}b")
        net.link(a, s, rate_bps=mbps(1000), delay=ms(1))
        net.link(tcp_host, s, rate_bps=mbps(1000), delay=ms(1))
        net.link(s, s2, rate_bps=mbps(100), delay=delay,
                 queue_factory=lambda q=queue: DropTailQueue(limit_packets=q))
        net.link(s2, b, rate_bps=mbps(1000), delay=ms(1))
        routes.append(net.route([a, s, s2, b]))
        tcp_conns.append(net.tcp_connection(
            net.route(["t", f"s{i}a", f"s{i}b", "b"]), total_bytes=None))
    conn = net.connection(routes, algorithm, total_bytes=None)
    conn.start(0.0)
    for i, tcp in enumerate(tcp_conns):
        tcp.start(0.05 * (i + 1))
    net.run(until=DWC_DURATION)
    return conn.aggregate_goodput_bps(elapsed=DWC_DURATION)


def _dwc_shared_tcp_share(algorithm: str) -> float:
    """TCP / MPTCP goodput when both MPTCP subflows and one TCP flow share a
    100 Mbps bottleneck."""
    net = Network(seed=12)
    mp, tcp, srv = net.add_host("mp"), net.add_host("tcp"), net.add_host("srv")
    left, right = net.add_switch("L"), net.add_switch("R")
    net.link(mp, left, rate_bps=mbps(1000), delay=ms(1))
    net.link(tcp, left, rate_bps=mbps(1000), delay=ms(1))
    net.link(left, right, rate_bps=mbps(100), delay=ms(10),
             queue_factory=lambda: DropTailQueue(limit_packets=120))
    net.link(right, srv, rate_bps=mbps(1000), delay=ms(1))
    mp_route = net.route([mp, left, right, srv])
    mptcp = net.connection([mp_route, mp_route], algorithm, total_bytes=None)
    tcp_conn = net.tcp_connection(net.route([tcp, left, right, srv]),
                                  total_bytes=None)
    mptcp.start(0.0)
    tcp_conn.start(0.1)
    net.run(until=DWC_DURATION)
    return (tcp_conn.aggregate_goodput_bps(elapsed=DWC_DURATION - 0.1)
            / mptcp.aggregate_goodput_bps(elapsed=DWC_DURATION))


def run_dwc() -> ByAlgorithm:
    """LIA, DWC and Reno on the two scenarios above, ``DWC_DURATION`` s
    each."""
    algorithms = ("lia", "dwc", "reno")
    return ByAlgorithm({
        "disjoint_bps": {a: _dwc_disjoint_goodput(a) for a in algorithms},
        "shared_tcp_share": {a: _dwc_shared_tcp_share(a)
                             for a in algorithms},
    })


def table(result) -> str:
    """An :class:`Ablation`'s energy and goodput per setting, then its extra
    scalars; a :class:`ByAlgorithm`'s columns, one row per algorithm."""
    if isinstance(result, ByAlgorithm):
        algorithms = next(iter(result.columns.values()))
        return format_table(["algorithm", *result.columns],
                            [[a, *(col[a] for col in result.columns.values())]
                             for a in algorithms])
    return "\n".join(
        [format_table([result.knob, "energy (J)", "goodput (Mbps)"],
                      [[k, result.energy_j[k], result.goodput_bps[k] / 1e6]
                       for k in result.energy_j])]
        + [f"{name}: {value:.4f}" for name, value in result.extra.items()])
