"""Command-line interface: ``python -m repro FIGURE ...`` or
``python -m repro COMMAND ...``.

``python -m repro fig09 fig17`` (or ``all``) regenerates figures.  Every
other command is one entry of :data:`COMMANDS`, the table that dispatch,
``python -m repro list`` and ``--help`` all read.  Handlers import what
they run, so ``import repro.cli`` and every ``--help`` load neither numpy
nor scipy (DESIGN.md §8).  docs/USAGE.md has worked examples.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro import __version__
from repro.errors import ConfigurationError
from repro.units import ms


class Command(NamedTuple):
    """One ``repro`` command.

    ``arguments`` adds its flags to a parser and ``handler`` runs the
    parsed namespace, returning the exit code.  An exception in
    ``usage_errors`` means bad input: its message goes to stderr and the
    exit code is 2.  A command with ``subcommands`` dispatches on its next
    word instead.
    """

    help: str
    handler: Optional[Callable[[argparse.Namespace], int]] = None
    arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    usage_errors: Tuple[type, ...] = ()
    subcommands: Optional[Dict[str, "Command"]] = None
    description: Optional[str] = None


#: What a command that reads files or specs treats as bad input.
_BAD_SPEC = (ConfigurationError, ValueError)
_BAD_FILE = (OSError, ValueError)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _milliseconds(text: str) -> float:
    """A flag given in milliseconds, as seconds."""
    return ms(float(text))


def _builder_kwargs(args: argparse.Namespace, **flags: str) -> Dict[str, Any]:
    """Keyword arguments for the flags the user set: ``flags`` maps a
    keyword to an ``args`` dest.  A flag left at its ``None`` default is
    omitted, so the callee's own default holds."""
    return {keyword: getattr(args, dest) for keyword, dest in flags.items()
            if getattr(args, dest) is not None}


def _owned_default(owner: Any, keyword: str) -> str:
    """``(default: <owner>'s, <value>)``, help for a flag whose default
    the builder ``owner`` states: read off its keyword defaults."""
    fn = owner.__init__ if isinstance(owner, type) else owner
    return f"(default: {owner.__name__}'s, {fn.__kwdefaults__[keyword]})"


def _reject(args: argparse.Namespace, dests: Iterable[str], why: str) -> None:
    """Raise if the user set any flag in ``dests``."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests
             if getattr(args, dest) is not None]
    if given:
        raise ConfigurationError(f"{', '.join(given)}: {why}")


def _add_json_out(parser: argparse.ArgumentParser, *flags: str, what: str) -> None:
    parser.add_argument(*flags, dest="json_out", metavar="FILE",
                        help=f"also write {what} as JSON to FILE, or '-' to "
                             "print only the JSON")


def _write_json(document: dict, path: Optional[str], label: str) -> None:
    """Write ``document`` to ``path`` and say so, or print it for ``-``."""
    if path is None:
        return
    blob = json.dumps(document, indent=2, sort_keys=True, default=str)
    if path == "-":
        print(blob)
    else:
        Path(path).write_text(blob + "\n", encoding="utf-8")
        print(f"{label}: {path}")


# -------------------------------------------------------------------- figures

def _run_figure(module: str, entry: str) -> None:
    mod = importlib.import_module(f"repro.experiments.{module}")
    print(mod.table(getattr(mod, entry)()))


def _figure_runners() -> Dict[str, Callable[[], None]]:
    """Figure id -> runner, from the claims ledger's figure table.  Modules
    load when their figure runs, so a packet figure never imports a fluid one."""
    from repro.experiments.claims import FIGURES

    return {fig.id: functools.partial(_run_figure, fig.module, fig.entry)
            for fig in FIGURES}


def _figure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("targets", nargs="+", metavar="FIGURE",
                        help="figure ids (fig01 ... fig17) or 'all'")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span/instant trace of the figure runs as a shard "
             "(repro.obs.trace/1); 'obs merge-trace' turns it into "
             "Perfetto JSON")
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a run-provenance manifest holding the final metrics "
             "snapshot (default with --trace: FILE.manifest.json)")


def _write_observed(session, targets: List[str], trace: str | None,
                    manifest: str | None) -> None:
    """Write a figure session's trace shard and its manifest (beside the
    shard unless ``--manifest`` names it)."""
    import hashlib

    if trace is not None:
        n = session.tracer.export_shard(trace, "repro-figures")
        print(f"trace shard: {trace} ({n} events)")
    manifest = manifest or f"{trace}.manifest.json"
    spec_hash = hashlib.sha256(
        ("repro.figures:" + ",".join(targets)).encode()).hexdigest()
    session.manifest(spec_hash=spec_hash).write(manifest)
    print(f"manifest: {manifest}")


def _figures(args) -> int:
    runners = _figure_runners()
    targets = sorted(runners) if "all" in args.targets else args.targets
    unknown = [t for t in targets if t not in runners]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(runners))}", file=sys.stderr)
        return 2

    import repro.obs as obs

    # An observed run (--trace / --manifest) runs under an ambient session;
    # a plain one keeps each engine's private registry.
    observed = args.trace is not None or args.manifest is not None
    with contextlib.ExitStack() as stack:
        session = stack.enter_context(obs.session(
            trace=args.trace is not None,
            label="figures:" + ",".join(targets))) if observed else None
        tracer = session.tracer if session is not None else obs.NULL_TRACER
        for name in targets:
            print(f"=== {name} " + "=" * (60 - len(name)))
            start = time.time()
            with tracer.span(f"figure.{name}"):
                runners[name]()
            print(f"--- {name} done in {time.time() - start:.1f}s\n")
    if session is not None:
        _write_observed(session, targets, args.trace, args.manifest)
    return 0


def _list(args) -> int:
    print("available figures:")
    for name in sorted(_figure_runners()):
        print(f"  {name}")
    print(_command_summary())
    return 0


def _claims(args) -> int:
    from repro.experiments import claims

    return claims.main()


# ------------------------------------------------------------------ campaign

def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes (default: %(default)s, "
                             "in-process)")
    parser.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                        help="result cache directory (default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the result cache entirely")
    parser.add_argument("--log", default=None, metavar="PATH",
                        help="JSONL telemetry log "
                             "(default: <cache-dir>/campaign.log.jsonl)")
    parser.add_argument("--run-timeout", type=float, default=None, metavar="S",
                        help="max seconds to wait for any single run "
                             "(pooled runs only: --jobs 2 or more)")
    parser.add_argument("--trace", default=None, metavar="DIR", dest="trace_dir",
                        help="distributed tracing: write per-run worker "
                             "trace shards, the driver shard, and a merged "
                             "Perfetto JSON into DIR")
    knobs = parser.add_argument_group(
        "run knobs", "A knob left unset keeps the campaign builder's "
        "default: repro.campaign.subflow_sweep_campaign, or "
        "ec2_sweep_campaign for 'sweep --engine packet-batch'.")
    knobs.add_argument("--duration", type=float,
                       help="simulated seconds per run")
    knobs.add_argument("--dt", type=float,
                       help="integration step in seconds (packet-batch: "
                            "the tick)")
    knobs.add_argument("--seeds", type=int, nargs="+",
                       help="seeds averaged per point")
    knobs.add_argument("--subflows", type=int, nargs="+",
                       help="subflow counts swept")


def _campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figures", nargs="+", metavar="FIGURE",
                        help="campaignable figures: fig12 fig13 fig14")
    parser.add_argument("--paper-scale", action="store_true",
                        help="the paper's full htsim parameters "
                             "(repro.experiments.paper_scale.FIG12_14; "
                             "hours)")
    _add_campaign_options(parser)


#: The default topology of a fluid sweep.
_SWEEP_TOPOLOGIES = ["bcube"]

#: Sweep flags only some engines read: (reader, engines, dests).  Any
#: other engine rejects them instead of dropping them.
_ENGINE_ONLY = (
    ("the fluid engines", ("fluid", "fluid-equilibrium"),
     ("topologies", "link_delay_ms", "dtype")),
    ("the time-stepped fluid engine", ("fluid",), ("shards", "path_pool")),
    ("the packet-batch engine", ("packet-batch",), ("hosts", "loss_rate")),
)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topologies", nargs="+", metavar="TOPO",
                        help="fluid engines: bcube, fattree, vl2, ... "
                             f"(default: {' '.join(_SWEEP_TOPOLOGIES)})")
    parser.add_argument("--algorithm", default="lia",
                        help="congestion-control algorithm "
                             "(default: %(default)s)")
    parser.add_argument("--link-delay-ms", type=_milliseconds, metavar="MS",
                        help="fluid engines: per-link one-way delay in ms "
                             "(default: subflow_sweep_campaign's)")
    parser.add_argument("--engine", default="fluid",
                        choices=("fluid", "fluid-equilibrium", "packet-batch"),
                        help="simulation engine (default: %(default)s). "
                             "'fluid-equilibrium' solves each network's "
                             "stationary state directly instead of "
                             "integrating to it (falls back to time-stepping "
                             "for wvegas/dctcp/dts-ext). 'packet-batch', "
                             "the vectorized struct-of-arrays packet "
                             "engine, runs the EC2/Fig.10 scenario instead "
                             "of the named topologies")
    parser.add_argument("--hosts", type=_positive_int, metavar="N",
                        help="packet-batch: EC2 hosts per run "
                             "(default: ec2_sweep_campaign's)")
    parser.add_argument("--loss-rate", type=float, metavar="P",
                        help="packet-batch: per-segment loss on each ENI "
                             "path (default: ec2_sweep_campaign's)")
    parser.add_argument("--shards", type=_positive_int, metavar="S",
                        help="fluid engine only: step S independent replicas "
                             "of each topology (merged exactly) instead of "
                             "one; --jobs then parallelizes the shards of "
                             "each run rather than the runs")
    parser.add_argument("--dtype", choices=("auto", "float32", "float64"),
                        help="fluid step-loop precision (default: the fluid "
                             "engine's; 'auto' picks float32 for very large "
                             "subflow populations)")
    parser.add_argument("--path-pool", type=_positive_int, metavar="K",
                        help="ECMP paths sampled per connection on sharded "
                             "fluid runs (default: run_sharded's; lower it "
                             "to speed up building k=24/k=32 fabrics)")
    _add_campaign_options(parser)


def _print_packet_sweep(group_name, counts, seeds, group) -> None:
    """Seed-averaged goodput table for packet-engine (EC2) sweeps."""
    from repro.analysis.report import format_table

    n = len(seeds)
    print(f"topology: {group_name} (engine: {group[0].spec.engine})")
    rows = []
    for block, nsub in enumerate(counts):
        metrics = [group[block * n + k].metrics for k in range(n)]
        rows.append([
            nsub,
            sum(m["aggregate_goodput_bps"] for m in metrics) / n / 1e6,
            sum(m["total_loss_events"] for m in metrics) / n,
            sum(m["total_retransmitted"] for m in metrics) / n,
        ])
    print(format_table(
        ["subflows", "goodput (Mbps)", "loss events", "retransmits"], rows))


def _finish_campaign_trace(trace, campaign_name, outcomes) -> None:
    """Write worker shards + the driver shard + the merged timeline."""
    from repro.obs.trace_merge import write_merged, write_shard

    out_dir = trace["dir"]
    paths = []
    for outcome in outcomes:
        shard = (outcome.payload or {}).get("trace")
        if not isinstance(shard, dict):
            continue  # cached or failed runs carry no shard
        paths.append(write_shard(
            out_dir / f"run-{outcome.spec.content_hash()[:16]}.trace.json",
            shard))
    trace["span"].finish(runs=len(outcomes), shards=len(paths))
    driver = out_dir / "driver.trace.json"
    trace["tracer"].export_shard(driver, f"campaign-{campaign_name}")
    merged = out_dir / "merged.trace.json"
    stats = write_merged([driver, *paths], merged)
    print(f"trace: {len(paths)} worker shard(s) + driver -> {merged} "
          f"({stats.events} events, {stats.orphans} orphans)")


def _group_outcomes(campaign, outcomes):
    """Yield (topology, counts, seeds, outcome-slice) per swept topology.

    Campaign builders order runs topology-major, then subflow count,
    then seed, so each topology owns one contiguous slice.
    """
    def distinct(field):
        return list(dict.fromkeys(getattr(run, field) for run in campaign.runs))

    counts, seeds = distinct("n_subflows"), distinct("seed")
    per_topo = len(counts) * len(seeds)
    for t, topo in enumerate(distinct("topology")):
        yield topo, counts, seeds, outcomes[t * per_topo:(t + 1) * per_topo]


def _execute_campaign(args, campaign, **executor_kwargs) -> int:
    """Run a CampaignSpec through the cache, telemetry log and executor
    the flags name; print per-topology tables and a summary.

    ``executor_kwargs`` override the executor's ``jobs``/``run_fn`` — the
    sharded-fluid path runs specs serially and spends ``--jobs`` inside
    each run instead.
    """
    import repro.obs as obs
    from repro.campaign import CampaignExecutor, CampaignTelemetry, ResultCache
    from repro.experiments.fig12_14_subflows import sweep_result_from_outcomes, table

    executor_kwargs.setdefault("jobs", args.jobs)
    if executor_kwargs["jobs"] == 1:
        _reject(args, ["run_timeout"],
                "runs execute in-process (--jobs 1, or --shards), and an "
                "in-process run cannot be stopped")
    log_path = args.log or str(Path(args.cache_dir) / "campaign.log.jsonl")
    telemetry = CampaignTelemetry(log_path=log_path)
    trace = None
    if args.trace_dir is not None:
        # The driver tracer owns the root span every worker shard
        # parents under; _finish_campaign_trace() closes and writes it.
        tracer = obs.Tracer()
        span = tracer.start_span("campaign.driver", jobs=args.jobs)
        trace = {"tracer": tracer, "span": span, "dir": Path(args.trace_dir)}
    executor = CampaignExecutor(
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        telemetry=telemetry, run_timeout=args.run_timeout,
        trace_parent=trace["span"].traceparent if trace else None,
        **executor_kwargs)

    start = time.time()
    outcomes = executor.run(campaign.runs, campaign_name=campaign.name)
    wall = time.time() - start
    if trace is not None:
        _finish_campaign_trace(trace, campaign.name, outcomes)

    failed = [o for o in outcomes if not o.ok]
    for group_name, counts, seeds, group in _group_outcomes(campaign, outcomes):
        if any(not o.ok for o in group):
            print(f"[{group_name}] {sum(not o.ok for o in group)} runs failed",
                  file=sys.stderr)
            continue
        if group[0].spec.engine == "packet-batch":
            _print_packet_sweep(group_name, counts, seeds, group)
        else:
            print(table(sweep_result_from_outcomes(group_name, counts, seeds,
                                                   group)))
        print()

    hits = telemetry.summary().get("cache_hits", 0)
    print(f"campaign '{campaign.name}': {len(outcomes)} runs, "
          f"{hits} cache hits, {len(failed)} failed, {wall:.2f}s wall")
    print(f"telemetry log: {log_path}")
    return 1 if failed else 0


def _campaign(args) -> int:
    from repro.campaign import figure_campaign
    from repro.campaign.spec import FIGURE_TOPOLOGIES

    unknown = [f for f in args.figures if f not in FIGURE_TOPOLOGIES]
    if unknown:
        raise ConfigurationError(
            f"not campaignable: {', '.join(unknown)} "
            f"(campaignable: {', '.join(sorted(FIGURE_TOPOLOGIES))})")
    knobs = {"subflow_counts": "subflows", "seeds": "seeds",
             "duration": "duration", "dt": "dt"}
    if args.paper_scale:
        _reject(args, knobs.values(),
                "cannot be combined with --paper-scale, which sets them")
        from repro.experiments import paper_scale

        campaign = paper_scale.fig12_14_campaign(args.figures)
    else:
        campaign = figure_campaign(args.figures,
                                   **_builder_kwargs(args, **knobs))
    return _execute_campaign(args, campaign)


def _sweep(args) -> int:
    from repro.campaign import ec2_sweep_campaign, subflow_sweep_campaign

    for reader, engines, dests in _ENGINE_ONLY:
        if args.engine not in engines:
            _reject(args, dests, f"for {reader} only, not {args.engine!r}")
    if args.shards is None:
        _reject(args, ["path_pool"], "for sharded runs only (add --shards)")
    knobs = _builder_kwargs(args, subflow_counts="subflows", seeds="seeds",
                            duration="duration")
    if args.engine == "packet-batch":
        campaign = ec2_sweep_campaign(
            algorithm=args.algorithm, **knobs,
            **_builder_kwargs(args, tick="dt", n_hosts="hosts",
                              loss_rate="loss_rate"))
    else:
        campaign = subflow_sweep_campaign(
            args.topologies or _SWEEP_TOPOLOGIES, algorithm=args.algorithm,
            engine=args.engine, **knobs,
            params=_builder_kwargs(args, shards="shards",
                                   path_pool="path_pool", dtype="dtype"),
            **_builder_kwargs(args, dt="dt", link_delay="link_delay_ms"))

    # Sharded fluid runs spend --jobs *inside* each run (one process per
    # shard) and run the specs themselves serially; shard_jobs rides in
    # via functools.partial so it never touches spec content hashes.
    if args.shards is not None and args.jobs > 1:
        from repro.campaign.executor import execute_run

        return _execute_campaign(
            args, campaign, jobs=1,
            run_fn=functools.partial(execute_run, shard_jobs=args.jobs))
    return _execute_campaign(args, campaign)


# ------------------------------------------------------------------------ obs

def _obs_report(args) -> int:
    from repro.obs.report import render_file

    rc = 0
    for path in args.files:
        try:
            print(render_file(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
    return rc


def _obs_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("log", metavar="JSONL",
                        help="telemetry log to follow (e.g. "
                             ".repro-cache/campaign.log.jsonl); may not "
                             "exist yet")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=9400, metavar="P",
                        help="HTTP port (default: %(default)s, "
                             "0 = ephemeral)")
    parser.add_argument("--interval", type=float, default=1.0, metavar="S",
                        help="poll/sample cadence in seconds "
                             "(default: %(default)s)")


def _obs_serve(args) -> int:
    import asyncio

    from repro.obs.serve import serve_forever

    try:
        asyncio.run(serve_forever(args.log, host=args.host, port=args.port,
                                  interval=args.interval))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _obs_promcheck(args) -> int:
    from repro.obs.prom import validate_exposition

    text = (sys.stdin.read() if args.file == "-"
            else Path(args.file).read_text(encoding="utf-8"))
    problems = validate_exposition(text)
    for problem in problems:
        print(problem, file=sys.stderr)
    samples = sum(1 for line in text.splitlines()
                  if line.strip() and not line.startswith("#"))
    print(f"{'FAIL' if problems else 'OK'}: {samples} samples, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def _obs_merge_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("shards", nargs="+", metavar="SHARD",
                        help="shard files from traced processes")
    parser.add_argument("-o", "--out", required=True, metavar="FILE",
                        help="merged Chrome trace_event JSON output path")
    parser.add_argument("--drop-orphans", action="store_true",
                        help="drop events whose parent span is in no shard "
                             "(default: quarantine them on an '(orphans)' "
                             "track)")


def _obs_merge_trace(args) -> int:
    from repro.obs.trace_merge import write_merged

    stats = write_merged(args.shards, args.out, drop_orphans=args.drop_orphans)
    print(f"merged {stats.shards} shard(s) -> {args.out}: "
          f"{stats.events} events on {len(stats.processes)} process "
          f"track(s) ({', '.join(stats.processes)}), "
          f"{stats.orphans} orphan(s)")
    return 0


def _obs_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="inputs (kinds are sniffed from content)")
    _add_json_out(parser, "-o", "--out",
                  what="the diagnosis (repro.obs.diagnosis/1)")


def _obs_analyze(args) -> int:
    from repro.obs.analyze import analyze_paths, validate_diagnosis
    from repro.obs.report import _render_diagnosis

    report = analyze_paths(args.files)
    problems = validate_diagnosis(report)
    for problem in problems:  # pragma: no cover - internal invariant
        print(f"internal: {problem}", file=sys.stderr)
    for i in report["inputs"]:
        if i["kind"] in ("unknown", "empty"):
            print(f"warning: {i['path']}: {i['kind']} input, skipped",
                  file=sys.stderr)
    if args.json_out != "-":
        print(_render_diagnosis(report))
    _write_json(report, args.json_out, "diagnosis")
    return 2 if problems else 0


# ---------------------------------------------------------------------- bench

def _bench_selection(parser: argparse.ArgumentParser, repeats: int) -> None:
    parser.add_argument("--suite", default="tier1", metavar="NAME",
                        help="case suite to run (default: %(default)s)")
    parser.add_argument("--case", action="append", default=None,
                        metavar="SUBSTR", dest="cases",
                        help="only cases whose name contains SUBSTR "
                             "(repeatable)")
    parser.add_argument("--repeats", type=_positive_int, default=repeats,
                        metavar="N",
                        help="timed repeats per case (default: %(default)s)")
    parser.add_argument("--warmup", type=int, default=1, metavar="N",
                        help="untimed warmup iterations (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="pinned RNG seed (default: %(default)s)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result JSON path (default: BENCH_<suite>.json)")


def _bench_profile_arguments(parser: argparse.ArgumentParser) -> None:
    _bench_selection(parser, repeats=1)
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="collapsed-stack output directory "
                             "(default: bench-profiles-<suite>)")
    parser.add_argument("--interval", type=float, default=0.002, metavar="S",
                        help="sampling interval in seconds "
                             "(default: %(default)s)")


def _bench_run(args) -> int:
    from repro.analysis.report import format_table
    from repro.bench import results as bench_results
    from repro.bench import run_suite

    profile = args.command == "profile"
    kwargs = dict(profile=True, profile_dir=args.profile_dir,
                  profile_interval=args.interval) if profile else {}
    doc = run_suite(args.suite, repeats=args.repeats, warmup=args.warmup,
                    seed=args.seed, patterns=args.cases,
                    progress=lambda msg: print(msg, file=sys.stderr),
                    **kwargs)
    out = args.out or bench_results.default_output_name(args.suite)
    bench_results.write(doc, out)
    print(format_table(["case", "n", "median ms", "mad ms", "min ms"],
                       bench_results.summary_rows(doc)))
    if profile:
        for name in sorted(doc["cases"]):
            sampling = doc["cases"][name].get("profile", {}).get("sampling", {})
            frames = sampling.get("top_frames", [])[:3]
            if frames:
                hot = ", ".join(f["frame"] for f in frames)
                print(f"{name}: {sampling.get('samples', 0)} samples, "
                      f"hot: {hot}")
    print(f"results: {out}")
    failed = bench_results.failures(doc)
    for name, error in failed.items():
        print(f"FAILED {name}: {error}", file=sys.stderr)
    return 1 if failed else 0


def _bench_compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("current", help="BENCH_*.json from the run under test")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10, metavar="T",
                        help="relative slowdown budget (default: %(default)s)")
    parser.add_argument("--mad-k", type=float, default=3.0, metavar="K",
                        help="baseline-MAD multiples added to the "
                             "threshold (default: %(default)s)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline case is absent "
                             "from the current run")
    _add_json_out(parser, "--json", what="the verdict (the CI contract, "
                                         "see docs/USAGE.md)")


def _bench_compare(args) -> int:
    from repro.bench import compare_documents, comparison_to_dict, render_comparison
    from repro.bench import results as bench_results

    comparison = compare_documents(
        bench_results.load(args.current), bench_results.load(args.baseline),
        tolerance=args.tolerance, mad_k=args.mad_k,
        allow_missing=args.allow_missing)
    if args.json_out != "-":
        print(render_comparison(comparison))
    _write_json(comparison_to_dict(comparison), args.json_out, "json verdict")
    return comparison.exit_code


def _bench_list(args) -> int:
    from repro.bench import select_cases, suite_names

    cases = select_cases(args.suite)
    if not cases:
        print(f"no cases in suite {args.suite!r} "
              f"(suites: {', '.join(suite_names())})", file=sys.stderr)
        return 2
    for case in cases:
        print(f"{case.name:32s} [{', '.join(case.suites)}] "
              f"{case.description}")
    print(f"{len(cases)} cases; suites: {', '.join(suite_names())}")
    return 0


# ------------------------------------------------------------------ transport

def _add_transport_options(parser: argparse.ArgumentParser) -> None:
    """The flags ``serve`` and ``fetch`` share."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address: serve binds it, fetch sends "
                             "to it (default: %(default)s)")
    parser.add_argument("--port", type=int, default=9300, metavar="BASE",
                        help="the server's first UDP port, one per subflow "
                             "path (default: %(default)s; serve: 0 = "
                             "ephemeral)")
    parser.add_argument("--loss", type=float, metavar="P",
                        help="inject datagram loss with probability P: serve "
                             "drops outbound DATA, fetch drops ACKs, fetch "
                             "--selftest drops forward-path DATA (default: 0; "
                             "with --selftest, loopback_selftest's 0.02)")
    parser.add_argument("--loss-seed", type=int, default=None,
                        help="seed for the loss shim (default: %(default)s)")
    parser.add_argument("--metrics-port", type=int, default=None, metavar="P",
                        help="serve /metrics on this HTTP port (serve: also "
                             "/manifest, /healthz and the dashboard; "
                             "0 = ephemeral)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record a trace shard (repro.obs.trace/1) to "
                             "FILE. serve writes it on shutdown and serves "
                             "it live at /trace; fetch sends its traceparent "
                             "in the HELLO, so a traced server's spans join "
                             "the same trace (--selftest also writes FILE's "
                             "sibling '<stem>.server.json' with the serve "
                             "shard)")


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.transport.server import TransportServer

    _add_transport_options(parser)
    parser.add_argument("--ports", type=_positive_int, default=4, metavar="N",
                        help="number of subflow ports to bind (default: "
                             "%(default)s; TransportServer's 2 is for "
                             "in-process callers)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first connection completes")
    parser.add_argument("--idle-timeout", type=float, metavar="S",
                        help="drop silent connections after S seconds "
                        + _owned_default(TransportServer, "idle_timeout"))
    parser.add_argument("--record-interval", type=float, metavar="S",
                        help="live series sampling cadence for /series, "
                             "/stream and /dashboard; 0 disables recording "
                        + _owned_default(TransportServer, "record_interval"))
    parser.add_argument("--flight-dump", default=None, metavar="FILE",
                        help="flight-recorder dump path (written on "
                             "SIGUSR1, on anomaly thresholds, and at "
                             "shutdown)")


def _serve(args) -> int:
    import asyncio

    from repro.transport.server import TransportServer

    async def run() -> int:
        server = TransportServer(
            host=args.host,
            base_port=args.port,
            n_ports=args.ports,
            loss_seed=args.loss_seed,
            metrics_port=args.metrics_port,
            flight_dump_path=args.flight_dump,
            trace=args.trace is not None,
            **_builder_kwargs(args, loss_rate="loss",
                              idle_timeout="idle_timeout",
                              record_interval="record_interval"),
        )
        if args.flight_dump is not None:
            server.flight.install_signal_handler()
        ports = await server.start()
        print(f"serving on {args.host} udp ports "
              f"{ports[0]}..{ports[-1]} ({len(ports)} paths)")
        if server.metrics_port is not None:
            print(f"metrics: http://{args.host}:{server.metrics_port}/metrics")
            print(f"dashboard: "
                  f"http://{args.host}:{server.metrics_port}/dashboard")
        try:
            while True:
                conn_id = await server.wait_connection_complete()
                snap = server.retired_rows.get(conn_id)
                if snap is not None:
                    print(f"conn {conn_id} [{snap['controller']}] "
                          f"{'done' if snap['completed'] else 'dropped'}: "
                          f"{snap['acked_segments']}/{snap['total_segments']} "
                          f"segments in {snap['elapsed_s']:.3f}s, "
                          f"{snap['energy_j']:.2f} J")
                if args.once:
                    return 0
        except asyncio.CancelledError:  # pragma: no cover - signal path
            return 0
        finally:
            await server.stop()
            if args.flight_dump is not None and server.flight.recorded:
                server.flight.dump(reason="shutdown")
                print(f"flight dump: {args.flight_dump} "
                      f"({server.flight.recorded} events)")
            if args.trace is not None:
                n = server.tracer.export_shard(args.trace, "repro-serve")
                print(f"trace shard: {args.trace} ({n} events)")

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _fetch_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.transport.client import fetch, loopback_selftest

    _add_transport_options(parser)
    parser.set_defaults(loss_seed=42)
    parser.add_argument("--subflows", type=_positive_int, metavar="N",
                        help="UDP subflows to open "
                        + _owned_default(loopback_selftest, "subflows"))
    parser.add_argument("--controller",
                        help="congestion controller the server should run "
                             "for this connection "
                        + _owned_default(fetch, "controller"))
    parser.add_argument("--bytes", type=_positive_int, metavar="B",
                        help="transfer size " + _owned_default(fetch, "total_bytes"))
    parser.add_argument("--payload", type=_positive_int, metavar="B",
                        help="payload bytes per segment "
                        + _owned_default(fetch, "payload_bytes"))
    parser.add_argument("--timeout", type=float, metavar="S",
                        help="overall fetch timeout " + _owned_default(fetch, "timeout"))
    parser.add_argument("--selftest", action="store_true",
                        help="run server + fetch in-process over loopback "
                             "(CI smoke mode; --host/--port ignored)")
    _add_json_out(parser, "--json", what="the result document")


def _print_fetch_result(result) -> None:
    from repro.analysis.report import format_table

    print(f"controller={result.controller} subflows={result.n_subflows} "
          f"bytes={result.bytes_received} elapsed={result.elapsed_s:.3f}s "
          f"goodput={result.goodput_bps / 1e6:.2f} Mbps "
          f"bad_datagrams={result.bad_datagrams}")
    print(format_table(
        ["path", "port", "segments", "dup", "bytes"],
        [[s.path_id, s.port, s.segments_in_order, s.duplicates,
          s.bytes_received] for s in result.subflows],
    ))


def _fetch(args) -> int:
    import asyncio

    import repro.obs as obs
    from repro.transport.client import fetch, loopback_selftest

    show = args.json_out != "-"  # keep stdout pure JSON for pipelines
    common = dict(loss_seed=args.loss_seed, metrics_port=args.metrics_port,
                  **_builder_kwargs(args, controller="controller",
                                    total_bytes="bytes",
                                    payload_bytes="payload", timeout="timeout",
                                    loss_rate="loss"))
    tracer = None
    try:
        if args.selftest:
            result = asyncio.run(loopback_selftest(
                trace=args.trace is not None,
                **_builder_kwargs(args, subflows="subflows"), **common))
            fetched = result.fetch
        else:
            tracer = obs.Tracer() if args.trace is not None else None
            n_subflows = (loopback_selftest.__kwdefaults__["subflows"]
                          if args.subflows is None else args.subflows)
            result = fetched = asyncio.run(fetch(
                args.host, [args.port + i for i in range(n_subflows)],
                tracer=tracer, **common))
    except (ConnectionError, asyncio.TimeoutError) as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    if args.trace is not None and args.selftest:
        from repro.obs.trace_merge import write_shard

        trace_path = write_shard(args.trace, result.client_shard)
        server_path = write_shard(trace_path.with_name(
            trace_path.stem + ".server.json"), result.server_shard)
        if show:
            print(f"trace shards: {trace_path} + {server_path}")
    elif tracer is not None:
        n = tracer.export_shard(args.trace, "repro-fetch")
        if show:
            print(f"trace shard: {args.trace} ({n} events)")
    if show:
        _print_fetch_result(fetched)
        if args.selftest:
            for snap in result.server_metrics.get("connections", {}).values():
                print(f"server energy: {snap['energy_j']:.2f} J, "
                      f"mean power {snap['mean_power_w']:.2f} W, "
                      f"retransmitted "
                      f"{sum(s['retransmitted'] for s in snap['subflows'])}")
    _write_json(result.to_dict(), args.json_out, "json")
    requested = fetched.total_segments * fetched.payload_bytes
    return 0 if fetched.bytes_received >= requested else 1


# ------------------------------------------------------------- command table

#: The figure runner: what ``python -m repro`` runs when its first word
#: names no command.
_FIGURES = Command(
    "regenerate figures", _figures, _figure_arguments,
    description="Regenerate figures from 'On Energy-Efficient Congestion "
                "Control for Multipath TCP' (ICDCS 2017).")

COMMANDS: Dict[str, Command] = {
    "list": Command("list the figures and commands", _list),
    "claims": Command(
        "judge the claims ledger; prints EXPERIMENTS.md", _claims,
        description="Run every figure at its defaults, judge the claims "
                    "ledger and print EXPERIMENTS.md; exit 1 if a verdict "
                    "class differs from its committed one."),
    "campaign": Command(
        "run Figs. 12-14 as a parallel, cached campaign", _campaign,
        _campaign_arguments, _BAD_SPEC,
        description="Run figure sweeps as a parallel, cached campaign. A "
                    "second invocation reuses every cached point (see the "
                    "JSONL log)."),
    "sweep": Command(
        "run an ad-hoc subflow sweep campaign on named topologies", _sweep,
        _sweep_arguments, _BAD_SPEC),
    "obs": Command(
        "inspect observability artifacts (docs/OBSERVABILITY.md)",
        subcommands={
            "report": Command(
                "summarize artifact files (kind is sniffed)", _obs_report,
                lambda p: p.add_argument("files", nargs="+", metavar="FILE")),
            "serve": Command(
                "tail a campaign telemetry JSONL into a live dashboard "
                "(/dashboard, /metrics.prom, /series)", _obs_serve,
                _obs_serve_arguments),
            "promcheck": Command(
                "validate a Prometheus text exposition (file or '-' for "
                "stdin)", _obs_promcheck,
                lambda p: p.add_argument("file", metavar="FILE"), (OSError,)),
            "merge-trace": Command(
                "stitch per-process trace shards (repro.obs.trace/1) into "
                "one Perfetto JSON", _obs_merge_trace,
                _obs_merge_trace_arguments, _BAD_FILE),
            "analyze": Command(
                "diagnose merged traces / shards / series snapshots / "
                "flight dumps into a structured report", _obs_analyze,
                _obs_analyze_arguments, _BAD_FILE),
        }),
    "bench": Command(
        "run benchmark suites, gate regressions, profile "
        "(docs/BENCHMARKS.md)",
        subcommands={
            "run": Command("run a suite, write BENCH_<suite>.json", _bench_run,
                           functools.partial(_bench_selection, repeats=3),
                           (ValueError,)),
            "profile": Command(
                "run a suite with cProfile + sampled stacks attached",
                _bench_run, _bench_profile_arguments, (ValueError,)),
            "compare": Command("gate a result file against a baseline",
                               _bench_compare, _bench_compare_arguments,
                               _BAD_FILE),
            "list": Command(
                "list registered cases and suites", _bench_list,
                lambda p: p.add_argument("--suite", metavar="NAME",
                                         help="restrict to one suite")),
        }),
    "serve": Command(
        "serve bulk transfers over real UDP subflows (docs/TRANSPORT.md)",
        _serve, _serve_arguments,
        description="Serve bulk transfers over N real UDP subflow sockets "
                    "(docs/TRANSPORT.md). Clients pick the congestion "
                    "controller per connection."),
    "fetch": Command(
        "fetch from 'repro serve', or run the loopback self-test", _fetch,
        _fetch_arguments,
        description="Fetch a bulk transfer from 'repro serve' over N UDP "
                    "subflows, or run the in-process loopback self-test."),
}


def _command_summary() -> str:
    lines = ["commands (python -m repro COMMAND --help):"]
    for name, command in COMMANDS.items():
        subs = f" [{' | '.join(command.subcommands)}]" if command.subcommands else ""
        lines.append(f"  {name:<9} {command.help}{subs}")
    return "\n".join(lines)


def _configure(parser: argparse.ArgumentParser,
               command: Command) -> argparse.ArgumentParser:
    parser.set_defaults(handler=command.handler,
                        usage_errors=command.usage_errors)
    if command.arguments is not None:
        command.arguments(parser)
    if command.subcommands:
        sub = parser.add_subparsers(dest="command", required=True)
        for name, child in command.subcommands.items():
            _configure(sub.add_parser(
                name, help=child.help,
                description=child.description or child.help), child)
    return parser


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``command`` in :data:`COMMANDS`, or with ``None`` the
    figure runner's, whose ``--help`` lists the commands."""
    if command is None:
        return _configure(argparse.ArgumentParser(
            prog="repro", description=_FIGURES.description,
            epilog=_command_summary(),
            formatter_class=argparse.RawDescriptionHelpFormatter), _FIGURES)
    entry = COMMANDS[command]
    return _configure(argparse.ArgumentParser(
        prog=f"repro {command}",
        description=entry.description or entry.help), entry)


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        return args.handler(args)
    except args.usage_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
