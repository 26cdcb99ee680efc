"""The paper's full-scale experiment parameters, as ready-made presets.

Every ``repro.experiments`` module defaults to scaled-down parameters that
finish in seconds; these presets carry the exact numbers the paper
reports so a faithful (slow — minutes to hours) run is one call away::

    from repro.experiments import fig06_shared_bottleneck, paper_scale

    result = fig06_shared_bottleneck.run(**paper_scale.FIG06)

The presets only pin the quantities the paper states explicitly; seeds
and other free knobs keep the module defaults.
"""

from __future__ import annotations

from repro.units import gb, mb, ms

#: Fig. 1 — num_subflows swept 1..8, large transfers per measurement.
FIG01 = {
    "subflow_counts": [1, 2, 3, 4, 5, 6, 7, 8],
    "transfer_bytes": gb(1),
}

#: Fig. 2 — hundreds-of-MB phone downloads.
FIG02 = {"transfer_bytes": mb(500)}

#: Fig. 3 — (a) 10 GB over 200..1000 Mbps Ethernet; (b) 500 MB over WiFi.
FIG03 = {
    "wired_bandwidths_mbps": [200, 400, 600, 800, 1000],
    "wireless_bandwidths_mbps": [10, 20, 30, 40, 50],
    "wired_bytes": gb(10),
    "wireless_bytes": mb(500),
}

#: Fig. 6 — N in {10, 20, 50, 100} MPTCP users, 16 MB each (plus 2N TCP).
FIG06 = {
    "user_counts": [10, 20, 50, 100],
    "transfer_bytes": mb(16),
}

#: Figs. 7-9 — the paper's burst cadence (45 Mbps bursts, 10 s mean gap,
#: 5 s mean duration) needs multi-GB transfers to span many cycles.
FIG07 = {
    "transfer_bytes": gb(1),
    "mean_burst_interval": 10.0,
    "mean_burst_duration": 5.0,
    "seeds": [1, 2, 3, 4, 5],
}

#: Fig. 10 — 40 instances, 10 GB per connection: at 4 x 256 Mbps that is
#: ~80 s of steady state per run.
FIG10 = {"n_hosts": 40, "duration": 80.0}

#: Figs. 12-14 — ten seeds, 1000 s flows. The paper's 100 ms links are
#: a RunSpec field (``link_delay``; :func:`fig12_14_campaign` sets it);
#: with them, allow the dynamics tens of minutes of simulated time to
#: converge.
FIG12_14 = {
    "subflow_counts": [1, 2, 3, 4, 5, 6, 7, 8],
    "duration": 1000.0,
    "seeds": list(range(1, 11)),
    "dt": 0.02,
}

#: Fig. 15/16 — 8 subflows, ten seeds.
FIG15 = {
    "n_subflows": 8,
    "duration": 1000.0,
    "seeds": list(range(1, 11)),
    "dt": 0.02,
}

#: Fig. 17 — the ns-2 runs were 200 s.
FIG17 = {"duration": 200.0, "seeds": [1, 2, 3, 4, 5]}

#: The paper's datacenter link delay (DESIGN.md discusses the scaling).
PAPER_DC_LINK_DELAY = ms(100)


def fig12_14_campaign(figures=("fig12", "fig13", "fig14")):
    """The full-scale Figs. 12-14 sweep as a campaign: every
    (topology, subflow count, seed) point of the paper's htsim runs as
    one cacheable :class:`repro.campaign.RunSpec`.

    240 points at paper scale (3 topologies x 8 counts x 10 seeds) —
    submit through :class:`repro.campaign.CampaignExecutor` so repeated
    invocations reuse every already-computed point::

        from repro.campaign import CampaignExecutor, ResultCache
        from repro.experiments import paper_scale

        spec = paper_scale.fig12_14_campaign()
        executor = CampaignExecutor(jobs=8, cache=ResultCache())
        outcomes = executor.run(spec.runs, campaign_name=spec.name)
    """
    from repro.campaign import figure_campaign

    return figure_campaign(
        list(figures),
        subflow_counts=FIG12_14["subflow_counts"],
        seeds=FIG12_14["seeds"],
        duration=FIG12_14["duration"],
        dt=FIG12_14["dt"],
        link_delay=PAPER_DC_LINK_DELAY,
        name="paper-scale-" + "-".join(figures),
    )
