#!/usr/bin/env python3
"""End-to-end benchmark: five user-path workloads, per-layer attribution.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--repeats N | --seconds S] [--trace 0|1]
                                 [--smoke] [--out FILE]

Each workload runs in a fresh interpreter (``worker.py``), one after
another, never concurrently: set-up probes, one warm-up, N timed bodies,
then (``--trace 1``) the traced pass.  N is ``--repeats`` (default 5) or,
with ``--seconds`` (how ``BENCHMARK.json`` runs it), what fits S seconds
together with the probes and the warm-up, never fewer than three.  The
reported value is the **median** over bodies.  Every metric is printed by
name with its unit, the correctness checks run inside the workloads, and
the last line of standard output is the result object ``BENCHMARK.json``'s
driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (MIN_REPEATS, ROOT, SCRATCH, load_benchmark,  # noqa: E402
                    median)
from workloads import NAMES  # noqa: E402

#: ``setup_s`` is the median over this many fresh interpreters that set
#: up and exit, before the one that measures.
SETUP_PROBES = 5
DEFAULT_REPEATS = 5
#: The driver allows a run 180 s.
WORKER_TIMEOUT_S = 170.0
SCHEMA = "repro.e2e/1"


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload: str, args, extra: List[str]) -> Dict[str, Any]:
    """One ``worker.py`` to completion; its JSON line, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), *(["--smoke"] if args.smoke else []),
            *extra]
    # Its own process group, so a hung worker goes with its pool children.
    proc = subprocess.Popen(argv, env=env, cwd=str(ROOT), text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerFailed(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args) -> Dict[str, Any]:
    """Set-up probes, then the measuring worker; one workload's record."""
    started = time.monotonic()
    load_start = os.getloadavg()
    nproc = os.cpu_count() or 1
    if load_start[0] > nproc:
        print(f"warning: load average {load_start[0]:.2f} exceeds nproc={nproc} "
              f"at the start of {name}; timings will be noisy", file=sys.stderr)
    # The smoke size checks the harness, not the machine: one probe.
    setup_samples = [
        _spawn(name, args, ["--setup-only", repr(time.monotonic())])["setup_s"]
        for _ in range(1 if args.smoke else SETUP_PROBES)]
    extra = ["--trace", str(args.trace),
             "--trace-out", str(SCRATCH / f"trace-{name}.json")]
    if args.seconds is not None:
        left = args.seconds - (time.monotonic() - started)
        extra += ["--seconds", repr(left)]
    else:
        extra += ["--repeats", str(args.repeats)]
    doc = _spawn(name, args, extra)
    doc["metrics"] = {"setup_s": {"value": median(setup_samples),
                                  "samples": setup_samples},
                      **doc["metrics"]}
    doc["load_avg"] = {"start": list(load_start), "end": list(os.getloadavg())}
    doc["run_s"] = time.monotonic() - started
    return doc


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, docs: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    versions = next(iter(docs.values()))["versions"] if docs else {}
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            **versions, "git_sha": _git_sha(), "seed": args.seed,
            "smoke": args.smoke, "repeats": args.repeats,
            "seconds": args.seconds, "traced": bool(args.trace)}


def report(name: str, doc: Dict[str, Any], units: Dict[str, str]) -> None:
    """Every metric by name, with its unit and sample count."""
    print(f"== {name}: {doc['repeats']} timed bodies, "
          f"{doc['attempted']} operations and checks, {doc['failed']} failed")
    for metric, m in doc["metrics"].items():
        note = ""
        if "n" in m:
            note = f"  (n={m['n']}, {m['beyond']} beyond"
            note += ", thin tail)" if m["beyond"] < 10 else ")"
        elif len(m.get("samples", ())) > 1:
            note = f"  (median of {len(m['samples'])})"
        print(f"  {metric:<46} {m['value']:>14.6g} {units[metric]}{note}")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(doc: Dict[str, Any], names: List[str],
                  units: Dict[str, str]) -> str:
    """The driver's result object.  A per-layer metric a workload does not
    list reads 0: the workload bypasses that layer."""
    metrics = {n: {"value": doc["metrics"].get(n, {"value": 0.0})["value"],
                   "unit": units[n]} for n in names}
    return json.dumps({"correct": doc["failed"] == 0,
                       "attempted": doc["attempted"], "failed": doc["failed"],
                       "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=NAMES, default=list(NAMES))
    ap.add_argument("--seed", type=int, default=1)
    how = ap.add_mutually_exclusive_group()
    how.add_argument("--repeats", type=int, default=None,
                     help=f"timed bodies after the warm-up (default {DEFAULT_REPEATS})")
    how.add_argument("--seconds", type=float, default=None,
                     help="as many bodies as fit this many seconds "
                          "(BENCHMARK.json's form)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add the traced pass and report the per-layer "
                         "metrics (ISSUE 11's --traced)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes that check the harness, not the machine")
    ap.add_argument("--out", type=Path, default=None,
                    help="write every metric, raw samples and the environment here")
    args = ap.parse_args(argv)
    if args.repeats is None and args.seconds is None:
        args.repeats = DEFAULT_REPEATS
    if args.repeats is not None and args.repeats < MIN_REPEATS:
        ap.error(f"--repeats must be at least {MIN_REPEATS}")
    if args.seconds is not None and not 0 < args.seconds <= WORKER_TIMEOUT_S:
        ap.error(f"--seconds must lie in (0, {WORKER_TIMEOUT_S:.0f}]")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "drives the repro package from its source tree", file=sys.stderr)
        return 2

    bench = load_benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    docs: Dict[str, Dict[str, Any]] = {}
    lines = []
    try:
        for name in args.workload:
            docs[name] = doc = run_workload(name, args)
            unnamed = sorted(set(doc["metrics"]) - set(units))
            if unnamed:
                raise WorkerFailed(f"{name}: metrics {unnamed} are not named "
                                   "in BENCHMARK.json")
            for metric, m in doc["metrics"].items():
                m["unit"] = units[metric]
            report(name, doc, units)
            lines.append(contract_line(doc, names, units))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"schema": SCHEMA, "environment": environment(args, docs),
             "workloads": docs}, indent=1), encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
