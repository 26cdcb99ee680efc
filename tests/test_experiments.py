"""Smoke tests: every figure experiment runs at tiny scale and returns a
sound structure with the paper's qualitative direction where cheap to check.

The full qualitative assertions (orderings, savings) live in benchmarks/;
these tests keep the harness importable and runnable in CI time.
"""

import pytest

from repro.campaign import build_topology
from repro.errors import ConfigurationError
from repro.experiments import (
    fig01_power_vs_subflows,
    fig02_mobile_power,
    fig03_energy_vs_throughput,
    fig04_power_vs_delay,
    fig06_shared_bottleneck,
    fig07_traffic_shifting,
    fig08_trace,
    fig09_dts_testbed,
    fig10_ec2,
    fig12_14_subflows,
    fig15_phi,
    fig16_dc_throughput,
    fig17_wireless,
)
from repro.units import mb


def test_fig01_mptcp_beats_tcp_power_and_rises():
    res = fig01_power_vs_subflows.run(subflow_counts=[1, 4],
                                      transfer_bytes=mb(2))
    tcp = res.tcp.mean_power_w
    powers = [m.mean_power_w for m in res.mptcp_by_subflows]
    assert all(p > tcp for p in powers)
    assert powers[-1] > powers[0]


def test_fig02_mptcp_draws_most_power():
    res = fig02_mobile_power.run(transfer_bytes=mb(1))
    by = res.by_label()
    assert by["mptcp"].device_power_w > by["tcp-wifi"].device_power_w
    assert by["mptcp"].device_power_w > by["tcp-lte"].device_power_w


def test_fig03_energy_falls_power_rises_wired():
    res = fig03_energy_vs_throughput.run(
        wired_bandwidths_mbps=[200, 600], wireless_bandwidths_mbps=[10, 40],
        wired_bytes=mb(8), wireless_bytes=mb(2),
    )
    assert res.wired[0].measurement.energy_j > res.wired[-1].measurement.energy_j
    assert res.wired[0].measurement.mean_power_w < res.wired[-1].measurement.mean_power_w
    assert (res.wireless[0].measurement.mean_power_w
            < res.wireless[-1].measurement.mean_power_w)


def test_fig04_power_rises_with_delay():
    res = fig04_power_vs_delay.run(path_delays_ms=[20, 120])
    low, high = res.points
    assert high.measurement.mean_power_w > low.measurement.mean_power_w
    # Throughput matched within tolerance (the controlled variable).
    assert high.measurement.goodput_bps == pytest.approx(
        low.measurement.goodput_bps, rel=0.25
    )


def test_fig06_structure_and_positive_energy():
    res = fig06_shared_bottleneck.run(
        algorithms=["lia", "olia"], user_counts=[3], transfer_bytes=mb(1)
    )
    assert len(res.cells) == 2
    cell = res.cell("lia", 3)
    assert len(cell.energies_j) == 3
    assert cell.stats.mean > 0


def test_fig07_rows_complete():
    res = fig07_traffic_shifting.run(
        algorithms=["lia", "olia"], transfer_bytes=mb(6), seeds=[1]
    )
    assert set(res.by_algorithm()) == {"lia", "olia"}
    assert all(r.goodput_bps > 0 for r in res.rows)


def test_fig08_traces_aligned():
    res = fig08_trace.run(duration=8.0, bin_width=2.0)
    lia = res.traces["lia"]
    assert len(lia.times) >= 3
    assert lia.total_energy_j > 0
    assert "dts" in res.traces


def test_fig09_pairing():
    res = fig09_dts_testbed.run(transfer_bytes=mb(6), seeds=[2])
    assert len(res.runs) == 1
    assert res.runs[0].energy_lia_j > 0
    assert res.runs[0].energy_dts_j > 0


def test_fig10_multipath_saves_energy():
    res = fig10_ec2.run(n_hosts=8, duration=6.0)
    by = res.by_label()
    assert by["lia"].aggregate_goodput_bps > 1.5 * by["tcp"].aggregate_goodput_bps
    assert res.saving_vs("tcp", "dts") > 0.2


def test_fig12_bcube_subflows_save_energy():
    res = fig12_14_subflows.run_sweep(
        topology_name="bcube", subflow_counts=[1, 3], duration=10.0, seeds=[1],
    )
    series = res.energy_series()
    assert series[3] < series[1]


def test_fig14_vl2_subflows_do_not_save():
    res = fig12_14_subflows.run_fig14(subflow_counts=[1, 8], duration=10.0,
                                      seeds=[1])
    series = res.energy_series()
    assert series[8] >= series[1] * 0.95


def test_fig15_16_structure():
    res = fig15_phi.run(topologies=["vl2"], algorithms=["lia", "dts"],
                        n_subflows=4, duration=8.0, seeds=[1])
    assert res.energy("vl2", "lia") > 0
    fig16 = fig16_dc_throughput.from_fig15(res)
    ratio = fig16.throughput_ratio("vl2")
    assert 0.7 < ratio < 1.3


def test_fig17_dts_saves_energy():
    res = fig17_wireless.run(algorithms=["lia", "dts"], duration=30.0,
                             seeds=[1])
    assert res.energy_saving() > 0.0
    assert res.throughput_ratio() < 1.1


def test_default_topologies_match_paper_scale():
    ft = build_topology("fattree")
    vl2 = build_topology("vl2")
    assert len(ft.hosts) == 128 and len(ft.switches) == 80
    assert len(vl2.hosts) == 128 and len(vl2.switches) == 80
    with pytest.raises(ConfigurationError):
        build_topology("hypercube")
