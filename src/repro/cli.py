"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro list                 # show available figures
    python -m repro fig09                # regenerate one figure
    python -m repro fig12 fig13 fig14    # several in sequence
    python -m repro all                  # everything (several minutes)
    python -m repro claims               # judge every claim; prints EXPERIMENTS.md

Campaign mode (parallel, cached — see docs/USAGE.md):

    python -m repro campaign fig12 fig13 fig14 --jobs 4
    python -m repro sweep --topologies bcube vl2 --subflows 1 2 4 8 --jobs 4

Observability (docs/OBSERVABILITY.md):

    python -m repro fig08 --trace fig08.shard.json   # + its .manifest.json
    python -m repro obs merge-trace fig08.shard.json -o fig08.perfetto.json
    python -m repro obs report fig08.shard.json fig08.shard.json.manifest.json
    python -m repro obs serve .repro-cache/campaign.log.jsonl   # live dashboard
    python -m repro obs promcheck metrics.prom

Benchmarks + regression gate (docs/BENCHMARKS.md):

    python -m repro bench run --suite tier1 --repeats 3
    python -m repro bench compare BENCH_tier1.json baselines/BENCH_tier1.json
    python -m repro bench profile --case engine.packet_transfer
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
from typing import Callable, Dict, List

from repro import __version__


def _run_figure(module: str, entry: str) -> None:
    mod = importlib.import_module(f"repro.experiments.{module}")
    print(mod.table(getattr(mod, entry)()))


def _figure_runners() -> Dict[str, Callable[[], None]]:
    """Figure id -> runner, from the claims ledger's figure table.  Modules
    load when their figure runs, so a packet figure never imports a fluid one."""
    from repro.experiments.claims import FIGURES

    return {fig.id: functools.partial(_run_figure, fig.module, fig.entry)
            for fig in FIGURES}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate figures from 'On Energy-Efficient Congestion "
            "Control for Multipath TCP' (ICDCS 2017)."
        ),
        epilog=(
            "Parallel, cached campaigns: 'python -m repro campaign --help' "
            "and 'python -m repro sweep --help'."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "targets",
        nargs="+",
        metavar="FIGURE",
        help="figure ids (fig01 ... fig17), 'list', or 'all'",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span/instant trace of the figure runs as a shard "
             "(repro.obs.trace/1); 'obs merge-trace' turns it into "
             "Perfetto JSON")
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a run-provenance manifest holding the final metrics "
             "snapshot (default with --trace: FILE.manifest.json)")
    return parser


# ------------------------------------------------------------------ campaign

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes (default: 1, in-process)")
    parser.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                        help="result cache directory (default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the result cache entirely")
    parser.add_argument("--log", default=None, metavar="PATH",
                        help="JSONL telemetry log "
                             "(default: <cache-dir>/campaign.log.jsonl)")
    parser.add_argument("--run-timeout", type=float, default=None, metavar="S",
                        help="max seconds to wait for any single run")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per run (default: 30)")
    parser.add_argument("--dt", type=float, default=None,
                        help="integration step (default: 0.004)")
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="seeds averaged per point (default: 1 2)")
    parser.add_argument("--subflows", type=int, nargs="+", default=None,
                        help="subflow counts swept (default: 1 2 4 8)")
    parser.add_argument("--trace", default=None, metavar="DIR", dest="trace_dir",
                        help="distributed tracing: write per-run worker "
                             "trace shards, the driver shard, and a merged "
                             "Perfetto JSON into DIR")


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description=(
            "Run figure sweeps as a parallel, cached campaign. A second "
            "invocation reuses every cached point (see the JSONL log)."
        ),
    )
    parser.add_argument("figures", nargs="+", metavar="FIGURE",
                        help="campaignable figures: fig12 fig13 fig14")
    parser.add_argument("--paper-scale", action="store_true",
                        help="the paper's full htsim parameters "
                             "(8 counts x 10 seeds x 1000 s — hours)")
    _add_campaign_options(parser)
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run an ad-hoc subflow sweep campaign on named topologies.",
    )
    parser.add_argument("--topologies", nargs="+", default=["bcube"],
                        metavar="TOPO", help="bcube, fattree, vl2")
    parser.add_argument("--algorithm", default="lia",
                        help="congestion-control algorithm (default: lia)")
    parser.add_argument("--link-delay-ms", type=float, default=1.0,
                        help="per-link one-way delay in ms (default: 1)")
    parser.add_argument("--engine", default="fluid",
                        choices=("fluid", "fluid-equilibrium", "packet-batch"),
                        help="simulation engine (default: fluid). "
                             "'fluid-equilibrium' solves each network's "
                             "stationary state directly instead of "
                             "integrating to it (falls back to time-stepping "
                             "for wvegas/dctcp/dts-ext). 'packet-batch', "
                             "the vectorized struct-of-arrays packet "
                             "engine, runs the EC2/Fig.10 scenario instead "
                             "of the named topologies")
    parser.add_argument("--hosts", type=_positive_int, default=40, metavar="N",
                        help="EC2 hosts per packet-engine run (default: 40)")
    parser.add_argument("--loss-rate", type=float, default=1e-3, metavar="P",
                        help="per-segment loss on each ENI path "
                             "(packet engine only; default: 1e-3)")
    parser.add_argument("--shards", type=_positive_int, default=None,
                        metavar="S",
                        help="fluid engine only: step S independent replicas "
                             "of each topology (merged exactly) instead of "
                             "one; --jobs then parallelizes the shards of "
                             "each run rather than the runs")
    parser.add_argument("--dtype", default=None,
                        choices=("auto", "float32", "float64"),
                        help="fluid step-loop precision (default: auto — "
                             "float32 for very large subflow populations)")
    parser.add_argument("--path-pool", type=_positive_int, default=None,
                        metavar="K",
                        help="ECMP paths sampled per connection on sharded "
                             "fluid runs (default: 64; lower it to speed up "
                             "building k=24/k=32 fabrics)")
    _add_campaign_options(parser)
    return parser


def _campaign_plumbing(args, run_fn=None, jobs=None):
    """Shared cache/telemetry/executor wiring for campaign and sweep.

    ``run_fn``/``jobs`` override the executor's worker function and
    fan-out width — the sharded-fluid path runs specs serially and
    spends ``--jobs`` inside each run instead.
    """
    import repro.obs as obs
    from repro.campaign import CampaignExecutor, CampaignTelemetry, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log_path = args.log
    if log_path is None:
        log_path = str(Path(args.cache_dir) / "campaign.log.jsonl")
    telemetry = CampaignTelemetry(log_path=log_path)
    trace = None
    if getattr(args, "trace_dir", None) is not None:
        # The driver tracer owns the root span every worker shard
        # parents under; _finish_campaign_trace() closes and writes it.
        tracer = obs.Tracer()
        span = tracer.start_span("campaign.driver", jobs=args.jobs)
        trace = {"tracer": tracer, "span": span, "dir": Path(args.trace_dir)}
    executor_kwargs = {} if run_fn is None else {"run_fn": run_fn}
    executor = CampaignExecutor(
        jobs=args.jobs if jobs is None else jobs,
        cache=cache, telemetry=telemetry,
        run_timeout=args.run_timeout,
        trace_parent=trace["span"].traceparent if trace else None,
        **executor_kwargs)
    return cache, telemetry, executor, log_path, trace


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


def _run_campaign_specs(campaign, executor, telemetry, log_path,
                        trace=None) -> int:
    """Execute a CampaignSpec and print per-topology tables + a summary."""
    from repro.experiments.fig12_14_subflows import sweep_result_from_outcomes, table

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

    summary = telemetry.summary()
    hits = summary.get("cache_hits", 0)
    print(f"campaign '{campaign.name}': {len(outcomes)} runs, "
          f"{hits} cache hits, {len(failed)} failed, {wall:.2f}s wall")
    print(f"telemetry log: {log_path}")
    return 1 if failed else 0


def _group_outcomes(campaign, outcomes):
    """Yield (topology, counts, seeds, outcome-slice) per swept topology.

    Campaign builders order runs topology-major, then subflow count,
    then seed, so each topology owns one contiguous slice.
    """
    topo_order: List[str] = []
    counts_set: List[int] = []
    seeds_set: List[int] = []
    for run in campaign.runs:
        if run.topology not in topo_order:
            topo_order.append(run.topology)
        if run.n_subflows not in counts_set:
            counts_set.append(run.n_subflows)
        if run.seed not in seeds_set:
            seeds_set.append(run.seed)
    per_topo = len(counts_set) * len(seeds_set)
    for t, topo in enumerate(topo_order):
        yield topo, counts_set, seeds_set, outcomes[t * per_topo:(t + 1) * per_topo]


def _campaign_main(argv: List[str]) -> int:
    args = build_campaign_parser().parse_args(argv)
    from repro.campaign import figure_campaign
    from repro.campaign.spec import FIGURE_TOPOLOGIES
    from repro.errors import ConfigurationError

    unknown = [f for f in args.figures if f not in FIGURE_TOPOLOGIES]
    if unknown:
        print(f"not campaignable: {', '.join(unknown)} "
              f"(campaignable: {', '.join(sorted(FIGURE_TOPOLOGIES))})",
              file=sys.stderr)
        return 2

    try:
        if args.paper_scale:
            from repro.experiments import paper_scale
            campaign = paper_scale.fig12_14_campaign(args.figures)
        else:
            overrides = {}
            if args.subflows is not None:
                overrides["subflow_counts"] = args.subflows
            if args.seeds is not None:
                overrides["seeds"] = args.seeds
            if args.duration is not None:
                overrides["duration"] = args.duration
            if args.dt is not None:
                overrides["dt"] = args.dt
            campaign = figure_campaign(args.figures, **overrides)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    _, telemetry, executor, log_path, trace = _campaign_plumbing(args)
    return _run_campaign_specs(campaign, executor, telemetry, log_path, trace)


def _sweep_main(argv: List[str]) -> int:
    args = build_sweep_parser().parse_args(argv)
    from repro.campaign import ec2_sweep_campaign, subflow_sweep_campaign
    from repro.errors import ConfigurationError
    from repro.units import ms

    try:
        if args.engine == "packet-batch":
            kwargs = {"algorithm": args.algorithm,
                      "n_hosts": args.hosts, "loss_rate": args.loss_rate}
            if args.subflows is not None:
                kwargs["subflow_counts"] = args.subflows
            if args.seeds is not None:
                kwargs["seeds"] = args.seeds
            if args.duration is not None:
                kwargs["duration"] = args.duration
            if args.dt is not None:
                kwargs["tick"] = args.dt
            campaign = ec2_sweep_campaign(**kwargs)
        else:
            params = {}
            if args.shards is not None:
                if args.engine != "fluid":
                    raise ConfigurationError(
                        "--shards applies to the time-stepped fluid engine "
                        f"only, not {args.engine!r}")
                params["shards"] = args.shards
                if args.path_pool is not None:
                    params["path_pool"] = args.path_pool
                if args.dtype is not None:
                    params["dtype"] = args.dtype
            elif args.dtype is not None:
                params["dtype"] = args.dtype
            kwargs = {"algorithm": args.algorithm, "engine": args.engine,
                      "link_delay": ms(args.link_delay_ms), "params": params}
            if args.subflows is not None:
                kwargs["subflow_counts"] = args.subflows
            if args.seeds is not None:
                kwargs["seeds"] = args.seeds
            if args.duration is not None:
                kwargs["duration"] = args.duration
            if args.dt is not None:
                kwargs["dt"] = args.dt
            campaign = subflow_sweep_campaign(args.topologies, **kwargs)
    except (ConfigurationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # Sharded fluid runs spend --jobs *inside* each run (one process per
    # shard) and run the specs themselves serially; shard_jobs rides in
    # via functools.partial so it never touches spec content hashes.
    run_fn = jobs = None
    if args.shards is not None and args.jobs > 1:
        from repro.campaign.executor import execute_run
        run_fn = functools.partial(execute_run, shard_jobs=args.jobs)
        jobs = 1

    _, telemetry, executor, log_path, trace = _campaign_plumbing(
        args, run_fn=run_fn, jobs=jobs)
    return _run_campaign_specs(campaign, executor, telemetry, log_path, trace)


# ------------------------------------------------------------------------ obs

def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Inspect observability artifacts: trace shards, merged "
                    "traces, run manifests, flight dumps, telemetry logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="summarize artifact files (kind is sniffed)")
    report.add_argument("files", nargs="+", metavar="FILE")

    serve = sub.add_parser(
        "serve", help="tail a campaign telemetry JSONL into a live "
                      "dashboard (/dashboard, /metrics.prom, /series)")
    serve.add_argument("log", metavar="JSONL",
                       help="telemetry log to follow (e.g. "
                            ".repro-cache/campaign.log.jsonl); may not "
                            "exist yet")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9400, metavar="P",
                       help="HTTP port (default: 9400, 0 = ephemeral)")
    serve.add_argument("--interval", type=float, default=1.0, metavar="S",
                       help="poll/sample cadence in seconds (default: 1)")

    promcheck = sub.add_parser(
        "promcheck", help="validate a Prometheus text exposition (file "
                          "or '-' for stdin)")
    promcheck.add_argument("file", metavar="FILE")

    merge = sub.add_parser(
        "merge-trace", help="stitch per-process trace shards "
                            "(repro.obs.trace/1) into one Perfetto JSON")
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard files from traced processes")
    merge.add_argument("-o", "--out", required=True, metavar="FILE",
                       help="merged Chrome trace_event JSON output path")
    merge.add_argument("--drop-orphans", action="store_true",
                       help="drop events whose parent span is in no shard "
                            "(default: quarantine them on an '(orphans)' "
                            "track)")

    analyze = sub.add_parser(
        "analyze", help="diagnose merged traces / shards / series "
                        "snapshots / flight dumps into a structured report")
    analyze.add_argument("files", nargs="+", metavar="FILE",
                         help="inputs (kinds are sniffed from content)")
    analyze.add_argument("-o", "--out", default=None, metavar="FILE",
                         help="also write the diagnosis JSON "
                              "(repro.obs.diagnosis/1) to FILE")
    return parser


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

    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    problems = validate_exposition(text)
    for problem in problems:
        print(problem, file=sys.stderr)
    samples = sum(1 for line in text.splitlines()
                  if line.strip() and not line.startswith("#"))
    print(f"{'FAIL' if problems else 'OK'}: {samples} samples, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def _obs_merge_trace(args) -> int:
    from repro.obs.trace_merge import write_merged

    try:
        stats = write_merged(args.shards, args.out,
                             drop_orphans=args.drop_orphans)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"merged {stats.shards} shard(s) -> {args.out}: "
          f"{stats.events} events on {len(stats.processes)} process "
          f"track(s) ({', '.join(stats.processes)}), "
          f"{stats.orphans} orphan(s)")
    return 0


def _obs_analyze(args) -> int:
    from repro.obs.analyze import analyze_paths, validate_diagnosis
    from repro.obs.report import _render_diagnosis

    try:
        report = analyze_paths(args.files)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_diagnosis(report)
    for problem in problems:  # pragma: no cover - internal invariant
        print(f"internal: {problem}", file=sys.stderr)
    for i in report["inputs"]:
        if i["kind"] in ("unknown", "empty"):
            print(f"warning: {i['path']}: {i['kind']} input, skipped",
                  file=sys.stderr)
    print(_render_diagnosis(report))
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"diagnosis: {args.out}")
    return 2 if problems else 0


def _obs_main(argv: List[str]) -> int:
    args = build_obs_parser().parse_args(argv)
    if args.command == "serve":
        return _obs_serve(args)
    if args.command == "promcheck":
        return _obs_promcheck(args)
    if args.command == "merge-trace":
        return _obs_merge_trace(args)
    if args.command == "analyze":
        return _obs_analyze(args)
    from repro.obs.report import render_file

    rc = 0
    for path in args.files:
        try:
            print(render_file(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
    return rc


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


# ---------------------------------------------------------------------- bench

def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run benchmark suites, gate regressions against a "
                    "baseline, and profile hot cases (docs/BENCHMARKS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p, default_repeats):
        p.add_argument("--suite", default="tier1", metavar="NAME",
                       help="case suite to run (default: tier1)")
        p.add_argument("--case", action="append", default=None,
                       metavar="SUBSTR", dest="cases",
                       help="only cases whose name contains SUBSTR "
                            "(repeatable)")
        p.add_argument("--repeats", type=_positive_int,
                       default=default_repeats, metavar="N",
                       help=f"timed repeats per case "
                            f"(default: {default_repeats})")
        p.add_argument("--warmup", type=int, default=1, metavar="N",
                       help="untimed warmup iterations (default: 1)")
        p.add_argument("--seed", type=int, default=1234,
                       help="pinned RNG seed (default: 1234)")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="result JSON path "
                            "(default: BENCH_<suite>.json)")

    run_p = sub.add_parser("run", help="run a suite, write BENCH_<suite>.json")
    add_selection(run_p, default_repeats=3)

    prof_p = sub.add_parser(
        "profile",
        help="run a suite with cProfile + sampled stacks attached")
    add_selection(prof_p, default_repeats=1)
    prof_p.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="collapsed-stack output directory "
                             "(default: bench-profiles-<suite>)")
    prof_p.add_argument("--interval", type=float, default=0.002, metavar="S",
                        help="sampling interval in seconds (default: 0.002)")

    cmp_p = sub.add_parser(
        "compare", help="gate a result file against a baseline")
    cmp_p.add_argument("current", help="BENCH_*.json from the run under test")
    cmp_p.add_argument("baseline", help="committed baseline BENCH_*.json")
    cmp_p.add_argument("--tolerance", type=float, default=0.10, metavar="T",
                       help="relative slowdown budget (default: 0.10)")
    cmp_p.add_argument("--mad-k", type=float, default=3.0, metavar="K",
                       help="baseline-MAD multiples added to the "
                            "threshold (default: 3)")
    cmp_p.add_argument("--allow-missing", action="store_true",
                       help="do not fail when a baseline case is absent "
                            "from the current run")
    cmp_p.add_argument("--json", metavar="PATH", dest="json_out",
                       help="also write the machine-readable verdict "
                            "(the CI contract, see docs/USAGE.md) to PATH, "
                            "or '-' for stdout instead of the table")

    list_p = sub.add_parser("list", help="list registered cases and suites")
    list_p.add_argument("--suite", default=None, metavar="NAME",
                        help="restrict to one suite")
    return parser


def _bench_run(args, profile: bool) -> int:
    from repro.analysis.report import format_table
    from repro.bench import results as bench_results
    from repro.bench import run_suite

    kwargs = {}
    if profile:
        kwargs.update(profile=True,
                      profile_dir=args.profile_dir,
                      profile_interval=args.interval)
    try:
        doc = run_suite(args.suite, repeats=args.repeats, warmup=args.warmup,
                        seed=args.seed, patterns=args.cases,
                        progress=lambda msg: print(msg, file=sys.stderr),
                        **kwargs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
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


def _bench_compare(args) -> int:
    import json as _json

    from repro.bench import (
        compare_documents,
        comparison_to_dict,
        render_comparison,
    )
    from repro.bench import results as bench_results

    try:
        current = bench_results.load(args.current)
        baseline = bench_results.load(args.baseline)
        comparison = compare_documents(
            current, baseline, tolerance=args.tolerance, mad_k=args.mad_k,
            allow_missing=args.allow_missing)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json_out = getattr(args, "json_out", None)
    if json_out == "-":
        print(_json.dumps(comparison_to_dict(comparison), indent=2,
                          sort_keys=True))
    else:
        print(render_comparison(comparison))
        if json_out:
            Path(json_out).write_text(
                _json.dumps(comparison_to_dict(comparison), indent=2,
                            sort_keys=True) + "\n")
            print(f"json verdict: {json_out}")
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


def _bench_main(argv: List[str]) -> int:
    args = build_bench_parser().parse_args(argv)
    if args.command == "run":
        return _bench_run(args, profile=False)
    if args.command == "profile":
        return _bench_run(args, profile=True)
    if args.command == "compare":
        return _bench_compare(args)
    return _bench_list(args)


# ------------------------------------------------------------------ transport

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve bulk transfers over N real UDP subflow sockets "
                    "(docs/TRANSPORT.md). Clients pick the congestion "
                    "controller per connection.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9300, metavar="BASE",
                        help="first UDP port; one port per subflow path "
                             "(default: 9300, 0 = ephemeral)")
    parser.add_argument("--ports", type=_positive_int, default=4, metavar="N",
                        help="number of subflow ports to bind (default: 4)")
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="inject outbound datagram loss with "
                             "probability P (testing; default: 0)")
    parser.add_argument("--loss-seed", type=int, default=None,
                        help="seed for the loss shim")
    parser.add_argument("--metrics-port", type=int, default=None, metavar="P",
                        help="serve /metrics, /manifest, /healthz on this "
                             "HTTP port (0 = ephemeral)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first connection completes")
    parser.add_argument("--idle-timeout", type=float, default=30.0,
                        metavar="S", help="drop silent connections after S "
                                          "seconds (default: 30)")
    parser.add_argument("--record-interval", type=float, default=0.5,
                        metavar="S",
                        help="live series sampling cadence for /series, "
                             "/stream and /dashboard (default: 0.5; "
                             "0 disables recording)")
    parser.add_argument("--flight-dump", default=None, metavar="FILE",
                        help="flight-recorder dump path (written on "
                             "SIGUSR1, on anomaly thresholds, and at "
                             "shutdown)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record connection/subflow spans; the shard "
                             "(repro.obs.trace/1) is written to FILE on "
                             "shutdown and served live at /trace")
    return parser


def build_fetch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fetch",
        description="Fetch a bulk transfer from 'repro serve' over N UDP "
                    "subflows, or run the in-process loopback self-test.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9300, metavar="BASE",
                        help="server's first UDP port (default: 9300)")
    parser.add_argument("--subflows", type=_positive_int, default=2,
                        metavar="N", help="UDP subflows to open (default: 2)")
    parser.add_argument("--controller", default="dts",
                        help="congestion controller the server should run "
                             "for this connection (default: dts)")
    parser.add_argument("--bytes", type=_positive_int,
                        default=4 * 1024 * 1024, metavar="B",
                        help="transfer size (default: 4 MiB)")
    parser.add_argument("--payload", type=_positive_int, default=1200,
                        metavar="B", help="payload bytes per segment "
                                          "(default: 1200)")
    parser.add_argument("--timeout", type=float, default=120.0, metavar="S",
                        help="overall fetch timeout (default: 120)")
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="inject loss (self-test: forward path; "
                             "fetch: ACK path) with probability P")
    parser.add_argument("--loss-seed", type=int, default=42,
                        help="seed for the loss shim (default: 42)")
    parser.add_argument("--metrics-port", type=int, default=None, metavar="P",
                        help="expose client /metrics on this HTTP port")
    parser.add_argument("--selftest", action="store_true",
                        help="run server + fetch in-process over loopback "
                             "(CI smoke mode; --host/--port ignored)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the result document as JSON "
                             "('-' for stdout)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record a client trace shard to FILE; the "
                             "traceparent rides the HELLO so a traced "
                             "server's spans join the same trace "
                             "(selftest: also writes FILE's sibling "
                             "'<stem>.server.json' with the serve shard)")
    return parser


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


def _emit_json(document: dict, path: "str | None") -> None:
    import json as _json

    if path is None:
        return
    blob = _json.dumps(document, indent=2, sort_keys=True, default=str)
    if path == "-":
        print(blob)
    else:
        Path(path).write_text(blob + "\n")
        print(f"json: {path}")


def _serve_main(argv: List[str]) -> int:
    import asyncio

    args = build_serve_parser().parse_args(argv)
    from repro.transport.server import TransportServer

    async def run() -> int:
        server = TransportServer(
            host=args.host,
            base_port=args.port,
            n_ports=args.ports,
            loss_rate=args.loss,
            loss_seed=args.loss_seed,
            metrics_port=args.metrics_port,
            idle_timeout=args.idle_timeout,
            record_interval=args.record_interval,
            flight_dump_path=args.flight_dump,
            trace=args.trace is not None,
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


def _fetch_main(argv: List[str]) -> int:
    import asyncio

    args = build_fetch_parser().parse_args(argv)
    import repro.obs as obs
    from repro.transport.client import fetch, loopback_selftest

    try:
        if args.selftest:
            result = asyncio.run(loopback_selftest(
                controller=args.controller,
                subflows=args.subflows,
                total_bytes=args.bytes,
                payload_bytes=args.payload,
                loss_rate=args.loss if args.loss > 0 else 0.02,
                loss_seed=args.loss_seed,
                timeout=args.timeout,
                metrics_port=args.metrics_port,
                trace=args.trace is not None,
            ))
            if args.trace is not None:
                from repro.obs.trace_merge import write_shard

                trace_path = write_shard(args.trace, result.client_shard)
                server_path = write_shard(trace_path.with_name(
                    trace_path.stem + ".server.json"), result.server_shard)
                if args.json != "-":
                    print(f"trace shards: {trace_path} + {server_path}")
            if args.json != "-":  # keep stdout pure JSON for pipelines
                _print_fetch_result(result.fetch)
                conn_snaps = result.server_metrics.get("connections", {})
                for snap in conn_snaps.values():
                    print(f"server energy: {snap['energy_j']:.2f} J, "
                          f"mean power {snap['mean_power_w']:.2f} W, "
                          f"retransmitted "
                          f"{sum(s['retransmitted'] for s in snap['subflows'])}")
            _emit_json(result.to_dict(), args.json)
            return 0 if result.fetch.bytes_received >= args.bytes else 1
        ports = [args.port + i for i in range(args.subflows)]
        tracer = obs.Tracer() if args.trace is not None else None
        result = asyncio.run(fetch(
            args.host,
            ports,
            controller=args.controller,
            total_bytes=args.bytes,
            payload_bytes=args.payload,
            loss_rate=args.loss,
            loss_seed=args.loss_seed,
            timeout=args.timeout,
            metrics_port=args.metrics_port,
            tracer=tracer,
        ))
        if tracer is not None:
            n = tracer.export_shard(args.trace, "repro-fetch")
            if args.json != "-":
                print(f"trace shard: {args.trace} ({n} events)")
        if args.json != "-":  # keep stdout pure JSON for pipelines
            _print_fetch_result(result)
        _emit_json(result.to_dict(), args.json)
        return 0 if result.bytes_received >= args.bytes else 1
    except (ConnectionError, asyncio.TimeoutError) as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------- main

def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "fetch":
        return _fetch_main(argv[1:])
    if argv and argv[0] == "claims":
        argparse.ArgumentParser(
            prog="repro claims",
            description="Run every figure at its defaults, judge the claims "
                        "ledger and print EXPERIMENTS.md; exit 1 if a verdict "
                        "class differs from its committed one.",
        ).parse_args(argv[1:])
        from repro.experiments import claims

        return claims.main()

    args = build_parser().parse_args(argv)
    runners = _figure_runners()

    if "list" in args.targets:
        print("available figures:")
        for name in sorted(runners):
            print(f"  {name}")
        print("subcommands: claims (paper-vs-measured ledger, prints "
              "EXPERIMENTS.md), campaign, sweep (parallel cached runs), "
              "obs (artifact reports), bench (benchmarks + regression "
              "gate), serve, fetch (real UDP transport); see --help")
        return 0

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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
