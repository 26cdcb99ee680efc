"""Shared pieces of the end-to-end harness: the check counter, the span
recorder, small statistics, and the helpers every workload uses to drive
``repro.cli.main`` in-process.

Nothing here imports ``repro`` at module import, so ``run.py`` and
``compare.py`` stay stdlib-only and start fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Scratch space stays inside the checkout (the driver forbids writing
#: anywhere else); ``.bench_build/`` is gitignored.
SCRATCH = ROOT / ".bench_build" / "e2e"

#: ``repro.obs.trace/1`` spelled out so a refactor of ``repro.obs`` cannot
#: move the instrument; it is what ``repro obs merge-trace`` sniffs for.
SHARD_SCHEMA = "repro.obs.trace/1"


#: ISSUE 11: never fewer than three repeats behind a median.
MIN_REPEATS = 3


def load_benchmark() -> Dict[str, Any]:
    """The contract file: workloads, metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: The user-facing metrics: name -> (unit, better, bound).  This is the one
#: place a regression bound is written.  ``compare.py`` applies it, as a
#: share of the parent's median (``fail_ratio``: any rise at all).  The
#: bounds are ISSUE 11's, except ``setup_s``: ``BENCHMARK.json``'s contract
#: makes it mandatory and tells it to carry the largest bound allowed.
USER_FACING = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "fail_ratio": ("ratio", "lower", 0.0),
    "energy_j_per_gbit": ("J/Gbit", "lower", 0.01),
    "fairness_x_util": ("ratio", "higher", 0.01),
    "replay_ms": ("ms", "lower", 0.10),
    "goodput_MBps": ("MB/s", "higher", 0.10),
    "lossy_goodput_MBps": ("MB/s", "higher", 0.10),
    "fetch_bulk_ms_p50": ("ms", "lower", 0.10),
    "fetch_bulk_ms_p95": ("ms", "lower", 0.10),
    "fetch_small_ms_p50": ("ms", "lower", 0.10),
    "fetch_small_ms_p99": ("ms", "lower", 0.10),
    "fetch_lossy_ms_p90": ("ms", "lower", 0.10),
}

#: The rows ``BENCHMARK.json`` mirrors under ``end_to_end`` (checked by
#: ``test_harness.py``), where the driver enforces them.  Its contract has
#: every workload emit every such metric, never 0, which leaves the three
#: all five workloads report; of those ``wall_s`` failed A/A at its 10% on
#: the reference sandbox and is demoted, as ISSUE 11 rules.  The rest are
#: listed under ``per_layer`` there and held only by ``compare.py``;
#: ``fail_ratio`` reaches the driver as ``failed``/``attempted``/``correct``.
DRIVER_GATED = ("setup_s", "peak_rss_mb")


# ---------------------------------------------------------------- checks

class Checks:
    """Counts operations and correctness checks attempted and failed.

    ``fail_ratio`` is ``failed / attempted``; every operation the
    workload performs (a CLI call, a run, a fetch) and every invariant it
    asserts goes through :meth:`expect`.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------- spans

class Spans:
    """In-memory span recorder (name, start, end, parent, one id per run).

    Spans nest on one thread, so a span's self time is its duration
    minus the durations of its direct children.  Nothing is written
    until :meth:`export` at exit.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.run = 0
        self.epoch_unix = time.time()
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        rec = {"name": name, "id": len(self.records), "run": self.run,
               "parent": self._stack[-1] if self._stack else None,
               "args": args, "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["end"] is not None)

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus direct-child cover."""
        cover = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                cover[r["parent"]] += r["end"] - r["start"]
        out: Dict[str, float] = {}
        for r in self.records:
            if r["end"] is not None:
                own = r["end"] - r["start"] - cover[r["id"]]
                out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def export(self, path: Path, process_name: str) -> None:
        """One file that is both Chrome trace-event JSON (Perfetto,
        ``repro obs report``) and a ``repro obs merge-trace`` shard."""
        chrome, shard = [], []
        for r in self.records:
            if r["end"] is None:
                continue
            ts, dur = r["start"] - self._t0, r["end"] - r["start"]
            args = {**r["args"], "run": r["run"]}
            chrome.append({"name": r["name"], "ph": "X", "pid": os.getpid(),
                           "tid": 1, "ts": round(ts * 1e6, 3),
                           "dur": round(dur * 1e6, 3), "args": args})
            shard.append({"type": "span", "name": r["name"],
                          "ts": round(ts, 9), "dur": round(dur, 9),
                          "span_id": f"{r['id']:016x}", "args": args,
                          "parent_span_id": None if r["parent"] is None
                          else f"{r['parent']:016x}"})
        doc = {"traceEvents": chrome, "displayTimeUnit": "ms",
               "schema": SHARD_SCHEMA, "trace_id": f"{os.getpid():032x}",
               "pid": os.getpid(), "process_name": process_name,
               "epoch_unix": self.epoch_unix, "dropped": 0, "events": shard}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


# ------------------------------------------------------------ statistics

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile; a
    tail with fewer than ten is printed as thin."""
    return n - max(1, math.ceil(p / 100.0 * n))


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def jain(values: Sequence[float]) -> float:
    """Jain's fairness index (1 = all equal, 1/n = one taker).  The
    harness's own, not ``repro.analysis.fairness``: the score must not
    move when the program under test changes its helper."""
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if not values or squares <= 0.0:
        return 0.0
    return total * total / (len(values) * squares)


def per_unit(total_s: float, count: float, scale: float = 1e6) -> float:
    """``total_s / count`` in micro-units (0 when the layer did no work)."""
    return total_s / count * scale if count else 0.0


# ------------------------------------------------------- driving the CLI

def run_cli(argv: List[str]) -> "tuple[int, str, float]":
    """``repro.cli.main(argv)`` with stdout captured: (rc, stdout, seconds)."""
    from repro.cli import main

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue(), time.perf_counter() - t0


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under the checkout's scratch space, removed on exit."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=str(SCRATCH)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def finite(*values: Optional[float]) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)
