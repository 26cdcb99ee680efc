"""The paper's evaluation as a ledger: one row per claim, judged by code.

Every claim of the evaluation (Figs. 1-17) and of the three ablations is one
:class:`Claim` in :data:`FIGURES` or :data:`ABLATIONS`, and is stated nowhere
else: the sentence, a metric read from the figure's result object, the band
the metric must fall in, the paper's "up to" magnitude where it prints one,
and the verdict class the row is committed to.

Each figure has two parameter sets: ``default`` (the module defaults,
``{}``) and ``smoke`` (small enough for the tier-1 suite).  ``python -m repro
claims`` runs the ``default`` pass, prints EXPERIMENTS.md rendered from the
rows and the figure modules' own tables, and exits 1 if a computed class
differs from a committed one; ``tests/test_experiments.py`` requires the
same classes from the ``smoke`` pass.  EXPERIMENTS.md embeds :func:`digest`
of the rows and both parameter sets, so an edited ledger with a stale
EXPERIMENTS.md fails tier-1.

Classes are computed, never typed: :func:`row_class` judges a row,
:func:`figure_class` a figure.  This module imports no figure module and no
numpy until a figure runs.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.units import mb

#: Absolute slack on an "up to" magnitude: a best value of 0.15 meets the
#: paper's "up to 20%".
TOLERANCE = 0.05


@dataclass(frozen=True)
class Claim:
    """One claim.  ``metric`` is a Python expression over the figure's
    result ``r`` that gives a number or a list of numbers; the claim holds
    when every value lies strictly between ``lo`` and ``hi``.  ``up_to`` is
    the paper's printed magnitude, which the largest value must reach."""

    paper: str
    metric: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    up_to: Optional[float] = None
    expect: str = "reproduced"


@dataclass(frozen=True)
class Figure:
    """A figure (or ablation) of the ledger: ``module.entry(**kwargs)``
    computes its result and ``module.table(result)`` prints it.  With a
    ``source``, the ledger derives the result from that figure's instead,
    through ``module.from_<source>``."""

    id: str
    title: str
    module: str
    entry: str
    smoke: Dict[str, Any]
    claims: Tuple[Claim, ...]
    note: str = ""
    source: str = ""


#: Figs. 12-14's smoke sweep: every default subflow count, one seed, 10 s.
_SWEEP = {"subflow_counts": [1, 2, 4, 8], "duration": 10.0, "seeds": [1]}

FIGURES: Tuple[Figure, ...] = (
    Figure(
        "fig01", "Fig. 1 — CPU power vs number of subflows",
        "fig01_power_vs_subflows", "run",
        {"subflow_counts": [1, 4], "transfer_bytes": mb(2)},
        (Claim("MPTCP consumes more CPU power than TCP.",
               "min(m.mean_power_w for m in r.mptcp_by_subflows) - r.tcp.mean_power_w",
               lo=0),
         Claim("MPTCP power increases with the number of subflows.",
               "min(steps(m.mean_power_w for m in r.mptcp_by_subflows))", lo=0))),
    Figure(
        "fig02", "Fig. 2 — Nexus 5 power in data transfers",
        "fig02_mobile_power", "run", {"transfer_bytes": mb(1)},
        (Claim("MPTCP largely increases the phone's power over TCP/WiFi and TCP/LTE.",
               '[r.by_label()["mptcp"].device_power_w - r.by_label()[k].device_power_w'
               ' for k in ("tcp-wifi", "tcp-lte")]', lo=0),
         Claim("MPTCP pays for both radios (bps on each).",
               'min(r.by_label()["mptcp"].wifi_bps, r.by_label()["mptcp"].lte_bps)',
               lo=0))),
    Figure(
        "fig03", "Fig. 3 — energy & power vs throughput",
        "fig03_energy_vs_throughput", "run",
        {"wired_bandwidths_mbps": [200, 600], "wireless_bandwidths_mbps": [10, 40],
         "wired_bytes": mb(8), "wireless_bytes": mb(8)},
        (Claim("(a) Ethernet: total energy decreases as throughput grows.",
               "max(steps(p.measurement.energy_j for p in r.wired))", hi=0),
         Claim("(a) Ethernet: power increases only gently (~15%).",
               "rise(p.measurement.mean_power_w for p in r.wired)", lo=0, hi=0.4),
         Claim("(b) WiFi: power increases sharply with throughput (~90%).",
               "rise(p.measurement.mean_power_w for p in r.wireless)", lo=0.15)),
        note="The ~15% and ~90% spans are the power model's at exactly 200→1000 "
             "and 10→50 Mbps, checked in `tests/test_energy_models.py` "
             "(`TestWiredCalibration`, `TestWirelessCalibration`). End to end "
             "the spans are compressed because scaled-down transfers do not "
             "saturate the configured bandwidth, so these rows judge direction "
             "and curvature only."),
    Figure(
        "fig04", "Fig. 4 — power vs path delay at matched throughput",
        "fig04_power_vs_delay", "run", {"path_delays_ms": [20, 120]},
        (Claim("At the same throughput, the flow on high-RTT paths consumes more "
               "CPU power.",
               "min(steps(p.measurement.mean_power_w for p in r.points))", lo=0),
         Claim("Throughput stays matched across delays (lowest / highest goodput).",
               "min(p.measurement.goodput_bps for p in r.points)"
               " / max(p.measurement.goodput_bps for p in r.points)", lo=0.7))),
    Figure(
        "fig06", "Fig. 6 — per-user energy, 4 TCP-friendly algorithms × N users",
        "fig06_shared_bottleneck", "run",
        {"algorithms": ["lia", "olia"], "user_counts": [3], "transfer_bytes": mb(1)},
        (Claim("OLIA (Pareto-optimal) consumes the least energy (its mean over "
               "LIA's and Balia's, each N).",
               '[r.mean_energy("olia", c.n_users) / c.stats.mean for c in r.cells'
               ' if c.algorithm in ("lia", "balia")]', hi=1.05),)),
    Figure(
        "fig07", "Fig. 7 — traffic shifting of the existing algorithms",
        "fig07_traffic_shifting", "run",
        {"algorithms": ["lia", "olia"], "transfer_bytes": mb(6), "seeds": [1]},
        (Claim("LIA outperforms OLIA, Balia and ecMTCP at traffic shifting "
               "(goodput ratio).",
               '[r.by_algorithm()["lia"].goodput_bps / x.goodput_bps for x in r.rows'
               ' if x.algorithm != "lia"]', lo=0.97),)),
    Figure(
        "fig08", "Fig. 8 — LIA vs modified-LIA (DTS) traces",
        "fig08_trace", "run", {"duration": 8.0, "bin_width": 2.0},
        (Claim("DTS does not degrade throughput.",
               'r.traces["dts"].mean_goodput_bps / r.traces["lia"].mean_goodput_bps',
               lo=0.9),
         Claim("DTS saves energy (at fixed duration, so it carries more bits per J).",
               'r.traces["dts"].total_energy_j / r.traces["lia"].total_energy_j',
               hi=1.05))),
    Figure(
        "fig09", "Fig. 9 — DTS vs LIA on the testbed scenario",
        "fig09_dts_testbed", "run", {"transfer_bytes": mb(64), "seeds": [2]},
        (Claim("DTS reduces energy by up to 20% compared to LIA (best seed).",
               "r.max_saving", lo=0.10, up_to=0.20),
         Claim("DTS saves energy on average over burst patterns.",
               "r.mean_saving", lo=0.02),
         Claim("DTS saves without sacrificing throughput (DTS / LIA goodput).",
               "r.mean_goodput_ratio", lo=0.95))),
    Figure(
        "fig10", "Fig. 10 — EC2 virtual cloud: TCP, DCTCP, LIA, DTS",
        "fig10_ec2", "run", {"n_hosts": 8, "duration": 6.0},
        (Claim("Multipath saves up to ~70% of the single-path algorithms' energy "
               "(vs TCP, DCTCP).",
               '[r.saving_vs(b, "dts") for b in ("tcp", "dctcp")]',
               lo=0.40, up_to=0.70, expect="direction"),
         Claim("The multipath hosts use all four ENIs (LIA / TCP goodput).",
               'r.by_label()["lia"].aggregate_goodput_bps'
               ' / r.by_label()["tcp"].aggregate_goodput_bps', lo=1.5),
         Claim("DTS performs similarly to LIA.",
               'abs(r.saving_vs("lia", "dts"))', hi=0.10)),
        note="Using 4 ENIs quadruples throughput and DTS ≈ LIA, but the saving "
             "falls short of 70%: our host model charges more marginal power at "
             "4× throughput than the authors' hosts apparently did."),
    Figure(
        "fig12", "Fig. 12 — energy overhead of LIA vs subflows, BCube",
        "fig12_14_subflows", "run_fig12", _SWEEP,
        (Claim("More subflows greatly reduce the energy overhead in BCube (8 vs 1).",
               "r.energy_series()[8] / r.energy_series()[1]", hi=0.85),
         Claim("The overhead falls from the first added subflow (2 vs 1).",
               "r.energy_series()[2] / r.energy_series()[1]", hi=1.0))),
    Figure(
        "fig13", "Fig. 13 — energy overhead of LIA vs subflows, FatTree",
        "fig12_14_subflows", "run_fig13", _SWEEP,
        (Claim("More subflows fail to save energy in FatTree (8 vs 1).",
               "r.energy_series()[8] / r.energy_series()[1]", lo=1.0,
               expect="deviation"),
         Claim("The overhead stops falling: no saving from 4 to 8 subflows.",
               "r.energy_series()[8] / r.energy_series()[4]", lo=0.98),
         Claim("No BCube-like deep drop from 1 to 8 subflows.",
               "r.energy_series()[8] / r.energy_series()[1]", lo=0.55)),
        note="Our fat-tree keeps the subflow throughput gains Raiciu et al. "
             "measured (goodput column), and under the paper's "
             "own nearly flat host-power curve (Fig. 3a) a throughput gain that "
             "large must reduce J/GB: the overhead falls through 4 subflows and "
             "turns up only at 8. The paper's flat FatTree curve would need "
             "subflows to yield almost no throughput in its htsim runs; the "
             "no-further-saving claim holds for the 4 → 8 step."),
    Figure(
        "fig14", "Fig. 14 — energy overhead of LIA vs subflows, VL2",
        "fig12_14_subflows", "run_fig14", _SWEEP,
        (Claim("More subflows fail to save energy in VL2: the overhead rises at "
               "every step.",
               "min(steps(r.energy_series().values()))", lo=0),
         Claim("... and clearly (8 vs 1).",
               "r.energy_series()[8] / r.energy_series()[1]", lo=1.2))),
    Figure(
        "fig15", "Fig. 15 — the compensative parameter φ in FatTree & VL2",
        "fig15_phi", "run",
        {"topologies": ["vl2"], "algorithms": ["lia", "dts", "dts-ext"],
         "n_subflows": 8, "duration": 8.0, "seeds": [1]},
        (Claim("The extended algorithm (φ) saves up to 20% energy vs LIA at 8 "
               "subflows (each topology).",
               '[r.saving(x.topology) for x in r.rows if x.algorithm == "lia"]',
               lo=0, up_to=0.20, expect="deviation"),),
        note="Plain DTS edges out LIA slightly and the DTS family all but "
             "eliminates loss events (losses column), but the φ term saves no "
             "energy here. Under permutation traffic every equal-cost path "
             "crosses the same number of switch-switch hops, so the ρ·hops price "
             "has no shifting margin, and host power (most of the total) dilutes "
             "whatever the queue-excess term saves. Nor does φ "
             "beat plain DTS where path costs do differ (Fig. 17's dts-ext "
             "row, the κ ablation)."),
    Figure(
        "fig16", "Fig. 16 — aggregate throughput in FatTree & VL2",
        "fig16_dc_throughput", "run", {},
        (Claim("Our algorithm gets as good utilization as LIA (DTS / LIA goodput, "
               "each topology).",
               '[r.throughput_ratio(x.topology) for x in r.fig15.rows'
               ' if x.algorithm == "lia"]', lo=0.9, hi=1.15),
         Claim("... and so does the extended algorithm (DTS-ext / LIA goodput).",
               '[r.throughput_ratio(x.topology, candidate="dts-ext")'
               ' for x in r.fig15.rows if x.algorithm == "lia"]', lo=0.85, hi=1.15)),
        source="fig15"),
    Figure(
        "fig17", "Fig. 17 — heterogeneous wireless (WiFi 10 Mbps/40 ms + 4G "
                 "20 Mbps/100 ms)",
        "fig17_wireless", "run",
        {"algorithms": ["lia", "dts"], "duration": 30.0, "seeds": [1]},
        (Claim("DTS saves up to 30% energy vs LIA (best seed).",
               "r.best_case_saving()", lo=0.10, up_to=0.30, expect="direction"),
         Claim("DTS saves energy on average over seeds.",
               "r.energy_saving()", lo=0.03),
         Claim("There is an energy/throughput tradeoff (DTS / LIA goodput).",
               "r.throughput_ratio()", lo=0.85, hi=1.10)),
        note="DTS's best seed falls short of the paper's 30%. At the module "
             "defaults DTS is also faster than LIA (goodput ratio above 1), so "
             "the tradeoff band holds without DTS paying any throughput for its "
             "saving; the φ variant (dts-ext) saves less than plain DTS."),
)

ABLATIONS: Tuple[Figure, ...] = (
    Figure(
        "epsilon", "Ablation — the DTS sigmoid's slope (Eq. 5 uses 10)",
        "ablations", "run_epsilon", {},
        (Claim("The paper's slope sits near the knee: within 10% of the best "
               "energy in the sweep.",
               "r.energy_j[10.0] / min(r.energy_j.values())", hi=1.10),)),
    Figure(
        "taylor", "Ablation — Algorithm 1's integer Taylor form vs the exact sigmoid",
        "ablations", "run_taylor", {},
        (Claim("The cubic is tight at the sigmoid centre (|u| ≤ 0.5).",
               'r.extra["max error, ratio 0.45-0.55"]', hi=0.03),
         Claim("It stays bounded out to |u| ≤ 1.5.",
               'r.extra["max error, ratio 0.35-0.65"]', hi=0.35),
         Claim("End to end it costs DTS under 10% goodput.",
               'r.goodput_bps["taylor"] / r.goodput_bps["exact"]', lo=0.9)),
        note="The cubic is a third-order expansion at u = 0, so it degrades "
             "fast beyond |u| ≈ 1.5 — a real fidelity cost of the kernel's "
             "fixed-point form; end to end it stays small because the extremes "
             "saturate toward 0 and 2 anyway."),
    Figure(
        "kappa", "Ablation — the energy-price weight κ (Eq. 7) on WiFi+4G",
        "ablations", "run_kappa", {},
        (Claim("The largest κ's drain buys no throughput over plain DTS "
               "(within 2%).",
               "r.goodput_bps[0.008] / r.goodput_bps[0.0]", hi=1.02),
         Claim("No κ in the sweep collapses the connection.",
               "min(r.goodput_bps.values()) / max(r.goodput_bps.values())",
               lo=0.4)),
        note="Every κ > 0 costs energy against plain DTS here and goodput stays "
             "within a few percent across the sweep: on this scenario the "
             "energy/throughput frontier the compensative term should trace is "
             "flat."),
)

LEDGER = FIGURES + ABLATIONS


def _steps(xs) -> List[float]:
    xs = list(xs)
    return [b - a for a, b in zip(xs, xs[1:])]


def _rise(xs) -> float:
    xs = list(xs)
    return (xs[-1] - xs[0]) / xs[0]


#: What a metric expression may call besides the result ``r``.
_NAMES = {"__builtins__": {}, "abs": abs, "max": max, "min": min,
          "steps": _steps, "rise": _rise}


def measure(claim: Claim, result: Any) -> List[float]:
    """The claim's metric on ``result``, as a list of values."""
    value = eval(claim.metric, {**_NAMES, "r": result})
    return [float(v) for v in value] if isinstance(value, list) else [float(value)]


def row_class(claim: Claim, values: Sequence[float]) -> str:
    """``deviation`` unless every value is in the band; then ``direction``
    if the largest misses the paper's magnitude by more than TOLERANCE,
    else ``reproduced``."""
    if not all((claim.lo is None or claim.lo < v) and (claim.hi is None or v < claim.hi)
               for v in values):
        return "deviation"
    if claim.up_to is not None and max(values) < claim.up_to - TOLERANCE:
        return "direction"
    return "reproduced"


def figure_class(classes: Sequence[str]) -> str:
    """``partial`` when some rows hold and others do not; otherwise
    ``deviation`` (none holds), ``direction`` (all hold, a magnitude is
    missed) or ``reproduced``."""
    if "deviation" in classes:
        return "deviation" if set(classes) == {"deviation"} else "partial"
    return "direction" if "direction" in classes else "reproduced"


def compute(fig: Figure, scale: str, results: Dict[str, Any]) -> Any:
    """``fig``'s result at ``scale`` (``"default"`` or ``"smoke"``);
    ``results`` holds the result of its ``source``, if it has one."""
    mod = importlib.import_module(f"repro.experiments.{fig.module}")
    if fig.source:
        return getattr(mod, f"from_{fig.source}")(results[fig.source])
    return getattr(mod, fig.entry)(**(fig.smoke if scale == "smoke" else {}))


def judge(fig: Figure, result: Any) -> List[Tuple[Claim, List[float], str]]:
    """(claim, values, computed class) per row."""
    return [(c, values, row_class(c, values))
            for c in fig.claims for values in [measure(c, result)]]


def mismatches(fig: Figure, result: Any) -> List[str]:
    """One line per row whose computed class is not its committed one."""
    return [f"{fig.id}: {c.paper} computed {got}, committed {c.expect} ({values})"
            for c, values, got in judge(fig, result) if got != c.expect]


def digest() -> str:
    """SHA-256 of the ledger's static content: every row, both parameter
    sets and the tolerance."""
    from repro.campaign.spec import sha256  # the builtin one, not hashlib's

    body = json.dumps([[asdict(f) for f in LEDGER], TOLERANCE], sort_keys=True)
    return sha256(body.encode("utf-8")).hexdigest()


def _band(c: Claim) -> str:
    if c.lo is not None and c.hi is not None:
        return f"{c.lo:g} < x < {c.hi:g}"
    return f"x > {c.lo:g}" if c.lo is not None else f"x < {c.hi:g}"


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def render(results: Dict[str, Any]) -> str:
    """EXPERIMENTS.md from the ``default`` pass's results."""
    judged = {fig.id: judge(fig, results[fig.id]) for fig in LEDGER}
    classes = {k: figure_class([c for _, _, c in rows]) for k, rows in judged.items()}
    out = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "<!-- Generated by `python -m repro claims` from "
        "src/repro/experiments/claims.py; edit the ledger, not this file. -->",
        f"Ledger digest: `{digest()}`",
        "",
        "Every claim of the paper's evaluation is one row of the claims ledger "
        "(`repro.experiments.claims`), judged on each figure module's default, "
        "scaled-down parameters. Absolute watts and joules are not expected to "
        "match the authors' hardware: orderings, directions and rough factors "
        "are the target (DESIGN.md §2, §5). The tier-1 suite judges the same "
        "rows on each figure's smoke parameters and requires the same classes.",
        "",
        "A row's metric `x` is an expression over the figure's result `r`. A "
        "row is **reproduced** when every value lies in its band and, where the "
        f"paper prints \"up to X\", the largest reaches X − {TOLERANCE:g}; "
        "**direction** when it lies in the band but misses X; **deviation** "
        "when it leaves the band. A figure is **partial** when some of its rows "
        "hold and others do not, and otherwise takes its rows' class (direction "
        "if any misses its magnitude).",
        "",
        "| figure | class |",
        "|---|---|",
        *[f"| {fig.title} | {classes[fig.id]} |" for fig in LEDGER],
    ]
    for fig in LEDGER:
        mod = importlib.import_module(f"repro.experiments.{fig.module}")
        out += ["", f"## {fig.title}", "", f"**Verdict: {classes[fig.id]}.**", "",
                "| claim | metric x | measured | holds when | paper | class |",
                "|---|---|---|---|---|---|"]
        out += [f"| {_cell(c.paper)} | `{_cell(c.metric)}` | "
                f"{' / '.join(f'{v:.4g}' for v in values)} | {_band(c)} | "
                f"{'' if c.up_to is None else f'up to {c.up_to:g}'} | {got} |"
                for c, values, got in judged[fig.id]]
        out += ["", "```", mod.table(results[fig.id]), "```"]
        if fig.note:
            out += ["", fig.note]
    return "\n".join(out)


def main() -> int:
    """Run the ``default`` pass, print EXPERIMENTS.md, and return 1 if a
    computed class differs from its committed one."""
    results: Dict[str, Any] = {}
    for fig in LEDGER:
        results[fig.id] = compute(fig, "default", results)
    print(render(results))
    stale = [line for fig in LEDGER for line in mismatches(fig, results[fig.id])]
    for line in stale:
        print(line, file=sys.stderr)
    return 1 if stale else 0
