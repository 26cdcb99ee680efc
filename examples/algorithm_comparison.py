#!/usr/bin/env python3
"""Compare every multipath algorithm on one shared-bottleneck scenario.

Two MPTCP-capable paths whose bottlenecks are also used by regular TCP
flows — the TCP-friendliness stress test. For each coupled algorithm we
report the MPTCP user's aggregate goodput, the competing TCP flows' mean
goodput (fairness), and the analytic Condition 1 verdict from the paper's
model (Section V.A).

Run:  python examples/algorithm_comparison.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.core import check_condition1, decompositions, solve_equilibrium
from repro.net import Network
from repro.units import mb, mbps, ms


def run_scenario(algorithm: str):
    net = Network(seed=7)
    client, server = net.add_host("c"), net.add_host("s")
    tcp_host = net.add_host("t")
    routes = []
    for i in range(2):
        sw_a, sw_b = net.add_switch(f"a{i}"), net.add_switch(f"b{i}")
        net.link(client, sw_a, rate_bps=mbps(500), delay=ms(1))
        net.link(tcp_host, sw_a, rate_bps=mbps(500), delay=ms(1))
        net.link(sw_a, sw_b, rate_bps=mbps(100), delay=ms(10))
        net.link(sw_b, server, rate_bps=mbps(500), delay=ms(1))
        routes.append(net.route([client, sw_a, sw_b, server]))
    mptcp = net.connection(routes, algorithm, total_bytes=mb(12), name="mptcp")
    tcp_flows = [
        net.tcp_connection(net.route(["t", f"a{i}", f"b{i}", "s"]),
                           total_bytes=mb(12), name=f"tcp{i}")
        for i in range(2)
    ]
    for conn in [mptcp, *tcp_flows]:
        conn.start(at=net.sim.rand.uniform(0, 0.05))
    net.run_until_complete([mptcp, *tcp_flows], timeout=120)
    tcp_mean = sum(f.aggregate_goodput_bps() for f in tcp_flows) / len(tcp_flows)
    return mptcp.aggregate_goodput_bps(), tcp_mean


def condition1_verdict(name: str) -> str:
    table = decompositions()
    if name not in table:
        return "n/a"
    model = table[name]
    state = solve_equilibrium(
        model, rtt=np.array([0.022, 0.022]), loss=np.array([0.005, 0.005])
    ).state
    report = check_condition1(model, state)
    return "friendly" if report.satisfied else f"psi_h={report.psi_on_best_path:.2f}"


def main() -> None:
    rows = []
    for algorithm in ("lia", "olia", "balia", "ecmtcp", "wvegas", "ewtcp",
                      "coupled", "dts"):
        mptcp_bps, tcp_bps = run_scenario(algorithm)
        rows.append([
            algorithm,
            mptcp_bps / 1e6,
            tcp_bps / 1e6,
            mptcp_bps / tcp_bps,
            condition1_verdict(algorithm),
        ])
    print(format_table(
        ["algorithm", "mptcp (Mbps)", "tcp mean (Mbps)",
         "mptcp/tcp ratio", "condition 1"],
        rows,
    ))


if __name__ == "__main__":
    main()
