"""One workload in one fresh interpreter: set up, one warm-up, the timed
bodies (``--repeats`` of them, or as many as fit ``--seconds``), then
(``--trace 1``) the traced pass.  Prints one JSON line for ``run.py``;
never run concurrently.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import (MIN_REPEATS, Checks, Spans, median, percentile,
                    samples_beyond, scratch_dir)

def _peak_rss_mb() -> float:
    """Max of this process and its reaped children, MiB (Linux: KiB)."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024.0


def _timed_bodies(wl, ctx, checks: Checks, *, repeats: int,
                  budget_s: float) -> "tuple[List[Dict[str, Any]], float]":
    """One warm-up, then ``repeats`` timed bodies.  With ``repeats`` 0 the
    count is what the warm-up's own duration says fits in ``budget_s``
    (warm-up included), ``MIN_REPEATS`` at least.

    Also the peak RSS once ``MIN_REPEATS`` bodies are done: the part every
    run has, so the mark does not move with how many more bodies fitted
    (``transport_loopback`` read 98 MiB after three and 102 after four).
    """
    t0 = time.perf_counter()
    wl.body(ctx, Checks())  # warm-up failures would repeat below
    warm_s = time.perf_counter() - t0
    if not repeats:
        repeats = max(MIN_REPEATS, int(budget_s / warm_s) - 1)
    bodies: List[Dict[str, Any]] = []
    rss = 0.0
    for _ in range(repeats):
        bodies.append(wl.body(ctx, checks))
        if len(bodies) == MIN_REPEATS:
            rss = _peak_rss_mb()
    return bodies, rss


def _aggregate(wl, bodies: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Scalars: median over bodies.  Pools: samples of every body
    together, then the percentile ``wl.POOLS`` names."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in bodies[0]["values"]:
        samples = [b["values"][name] for b in bodies]
        out[name] = {"value": median(samples), "samples": samples}
    for name, (pool, p) in wl.POOLS.items():
        pooled = [v for b in bodies for v in b["pools"][pool]]
        out[name] = {"value": percentile(pooled, p), "n": len(pooled),
                     "beyond": samples_beyond(len(pooled), p),
                     # one sample per body, for spread and quartiles
                     "samples": [percentile(b["pools"][pool], p)
                                 for b in bodies]}
    return out


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", type=float, default=None, metavar="T0",
                    help="set up, print the seconds since time.monotonic() "
                         "read T0 (when run.py spawned this process), and exit")
    ap.add_argument("--repeats", type=int, default=0,
                    help=f"timed bodies after the warm-up, {MIN_REPEATS} or more")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="without --repeats: as many bodies as fit this "
                         "budget, counted from this process's start")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    started = time.monotonic()

    import workloads
    wl = workloads.load(args.workload)
    doc: Dict[str, Any] = {"workload": args.workload}
    checks = Checks()
    with scratch_dir(args.workload) as scratch:
        ctx = wl.setup(args.seed, "smoke" if args.smoke else "bench", scratch)
        try:
            if args.setup_only is not None:
                doc["setup_s"] = time.monotonic() - args.setup_only
                print(json.dumps(doc))
                return 0
            bodies, rss = _timed_bodies(
                wl, ctx, checks, repeats=args.repeats,
                budget_s=args.seconds - (time.monotonic() - started))
            metrics = _aggregate(wl, bodies)
            metrics["peak_rss_mb"] = {"value": rss}
            if args.trace:
                spans = Spans()
                with spans.span("traced_pass") as root:
                    layer = wl.traced(ctx, checks, spans)
                traced_wall = layer.pop("traced_wall_s")
                layer["harness.trace_overhead"] = (
                    traced_wall / metrics["wall_s"]["value"])
                # Share of the traced pass inside some stage's span.
                layer["harness.stage_cover"] = 1.0 - (
                    spans.self_times()["traced_pass"]
                    / (root["end"] - root["start"]))
                metrics.update({k: {"value": v} for k, v in layer.items()})
                doc["self_times_s"] = spans.self_times()
                if args.trace_out:
                    spans.export(Path(args.trace_out),
                                 f"e2e-{args.workload}")
        finally:
            wl.teardown(ctx)
    metrics["fail_ratio"] = {"value": checks.fail_ratio}

    import numpy
    import scipy
    doc.update({
        "metrics": metrics, "repeats": len(bodies),
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures, "inputs": ctx["inputs"],
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
