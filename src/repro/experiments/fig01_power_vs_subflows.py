"""Fig. 1 — CPU power of TCP vs MPTCP as the subflow count grows.

The paper transfers data between two dual-NIC machines, varying the MPTCP
path manager's ``num_subflows`` (subflows per NIC) from 1 to 8, and reads
CPU power from RAPL. Claims: (1) MPTCP consumes more CPU power than TCP;
(2) MPTCP power increases with the number of subflows.

Reproduction: two 100 Mbps paths between client and server, an MPTCP
connection with ``n`` subflows per path (so 2n total), a TCP baseline on
one path, and the wired host power model in place of RAPL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy.cpu import HostPowerModel, default_wired_host
from repro.experiments.common import MeasuredTransfer, meter_and_run
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mb, mbps, ms


@dataclass
class Fig01Result:
    """Power per configuration, TCP first."""

    tcp: MeasuredTransfer
    mptcp_by_subflows: List[MeasuredTransfer]
    subflow_counts: List[int]


def _build_network(seed: Optional[int], nic_bps: float, delay: float):
    net = Network(seed=seed)
    client = net.add_host("client")
    server = net.add_host("server")
    switches = [net.add_switch("s1"), net.add_switch("s2")]
    for sw in switches:
        net.link(client, sw, rate_bps=nic_bps, delay=delay / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=100))
        net.link(sw, server, rate_bps=nic_bps, delay=delay / 2,
                 queue_factory=lambda: DropTailQueue(limit_packets=100))
    routes = [net.route([client, sw, server]) for sw in switches]
    return net, routes


def run(
    *,
    subflow_counts: Optional[List[int]] = None,
    transfer_bytes: int = mb(8),
    nic_bps: float = mbps(100),
    path_delay: float = ms(20),
    host_model: Optional[HostPowerModel] = None,
    seed: int = 1,
) -> Fig01Result:
    """Run the Fig. 1 sweep. Paper scale: ``subflow_counts=range(1, 9)``,
    ``transfer_bytes=gb(1)``."""
    counts = subflow_counts if subflow_counts is not None else [1, 2, 4, 8]
    model = host_model if host_model is not None else default_wired_host()

    net, routes = _build_network(seed, nic_bps, path_delay)
    tcp_conn = net.tcp_connection(routes[0], total_bytes=transfer_bytes)
    tcp = meter_and_run(net, tcp_conn, model, n_subflows=1, algorithm_label="tcp")

    mptcp_runs: List[MeasuredTransfer] = []
    for n in counts:
        net_n, routes_n = _build_network(seed + n, nic_bps, path_delay)
        # num_subflows = n per path, as the kernel's fullmesh module does.
        subflow_routes = [r for r in routes_n for _ in range(n)]
        conn = net_n.connection(subflow_routes, "lia", total_bytes=transfer_bytes)
        mptcp_runs.append(
            meter_and_run(
                net_n, conn, model, n_subflows=2 * n,
                algorithm_label=f"mptcp-{n}",
            )
        )
    return Fig01Result(tcp=tcp, mptcp_by_subflows=mptcp_runs, subflow_counts=counts)


def table(result: Fig01Result) -> str:
    """The Fig. 1 rows."""
    rows = [["tcp (1 NIC)", 1, result.tcp.mean_power_w,
             result.tcp.goodput_bps / 1e6]]
    for n, m in zip(result.subflow_counts, result.mptcp_by_subflows):
        rows.append([f"mptcp num_subflows={n}", 2 * n, m.mean_power_w,
                     m.goodput_bps / 1e6])
    return format_table(
        ["configuration", "total subflows", "mean power (W)", "goodput (Mbps)"], rows
    )
