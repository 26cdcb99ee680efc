"""The claims ledger at smoke scale.

Every figure and ablation of ``repro.experiments.claims`` runs once on its
``smoke`` kwargs and must give each row its committed class (Figs. 15 and
16 share one run). The paper's claims live in the ledger's rows; this file
adds only structural checks, and requires EXPERIMENTS.md to have been
rendered from the current ledger.
"""

from pathlib import Path

import pytest

from repro.campaign import build_topology
from repro.errors import ConfigurationError
from repro.experiments import claims

LEDGER = {fig.id: fig for fig in claims.LEDGER}


def smoke(fig_id, results=None):
    """``fig_id``'s smoke result, after checking every row's class."""
    fig = LEDGER[fig_id]
    result = claims.compute(fig, "smoke", results or {})
    assert claims.mismatches(fig, result) == []
    return result


def test_fig01_mptcp_beats_tcp_power_and_rises():
    smoke("fig01")


def test_fig02_mptcp_draws_most_power():
    smoke("fig02")


def test_fig03_energy_falls_power_rises_wired():
    smoke("fig03")


def test_fig04_power_rises_with_delay():
    smoke("fig04")


def test_fig06_structure_and_positive_energy():
    res = smoke("fig06")
    assert len(res.cells) == 2
    cell = res.cell("lia", 3)
    assert len(cell.energies_j) == 3
    assert cell.stats.mean > 0


def test_fig07_rows_complete():
    res = smoke("fig07")
    assert set(res.by_algorithm()) == {"lia", "olia"}
    assert all(r.goodput_bps > 0 for r in res.rows)


def test_fig08_traces_aligned():
    res = smoke("fig08")
    lia = res.traces["lia"]
    assert len(lia.times) >= 3
    assert lia.total_energy_j > 0
    assert "dts" in res.traces


def test_fig09_pairing():
    res = smoke("fig09")
    assert len(res.runs) == 1
    assert res.runs[0].energy_lia_j > 0
    assert res.runs[0].energy_dts_j > 0


def test_fig10_multipath_saves_energy():
    smoke("fig10")


def test_fig12_bcube_subflows_save_energy():
    smoke("fig12")


def test_fig13_fattree_subflows_stop_saving():
    smoke("fig13")


def test_fig14_vl2_subflows_do_not_save():
    smoke("fig14")


def test_fig15_16_structure():
    res = smoke("fig15")
    assert res.energy("vl2", "lia") > 0
    smoke("fig16", {"fig15": res})


def test_fig17_dts_saves_energy():
    smoke("fig17")


@pytest.mark.parametrize("fig_id", [fig.id for fig in claims.ABLATIONS])
def test_ablation(fig_id):
    smoke(fig_id)


def test_experiments_md_is_rendered_from_this_ledger():
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    assert f"Ledger digest: `{claims.digest()}`" in text, (
        "the ledger changed: regenerate with "
        "`python -m repro claims > EXPERIMENTS.md`")


def test_verdict_classes_are_computed_by_rule():
    row = claims.Claim("", "", lo=0.1, up_to=0.2)
    assert claims.row_class(row, [0.16]) == "reproduced"
    assert claims.row_class(row, [0.12]) == "direction"
    assert claims.row_class(row, [0.3, 0.05]) == "deviation"
    assert claims.figure_class(["reproduced", "reproduced"]) == "reproduced"
    assert claims.figure_class(["reproduced", "direction"]) == "direction"
    assert claims.figure_class(["deviation", "deviation"]) == "deviation"
    assert claims.figure_class(["direction", "deviation"]) == "partial"


def test_default_topologies_match_paper_scale():
    ft = build_topology("fattree")
    vl2 = build_topology("vl2")
    assert len(ft.hosts) == 128 and len(ft.switches) == 80
    assert len(vl2.hosts) == 128 and len(vl2.switches) == 80
    with pytest.raises(ConfigurationError):
        build_topology("hypercube")
