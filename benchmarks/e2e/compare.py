#!/usr/bin/env python3
"""Compare two ``run.py --out`` files: one row per workload x metric.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent, B the change.  Every user-facing metric (``common.
USER_FACING``, the one table of bounds) gets a verdict per workload:

``regression``  B's median is worse than A's by more than the bound, and
                the pair resolves it: the run-to-run spread (quartile
                distance over median, either side) is within the bound,
                or no run of one side overlaps a run of the other
``improved``    the same, the other way round
``unresolved``  the spread exceeds the bound and the runs overlap: the
                pair can show neither "unchanged" nor "changed"
``ok``          within the bound, spread within it too
``missing``     A reports the metric and B does not

Layer metrics are printed with both medians and no verdict.  Exit status
is 1 on any regression, missing metric or higher ``fail_ratio``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import USER_FACING, quartiles  # noqa: E402

FAILING = ("regression", "missing")


def _samples(metric: Dict[str, Any]) -> List[float]:
    return list(metric.get("samples") or [metric["value"]])


def _spread(samples: Sequence[float]) -> float:
    q1, mid, q3 = quartiles(samples)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """How B's metric stands against A's at ``bound``, a share of A's
    median (absolute where A reads 0, as ``fail_ratio`` does)."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive: B is worse.
    worse = sign * (b["value"] - a["value"]) / (abs(a["value"]) or 1.0)
    sa, sb = _samples(a), _samples(b)
    apart = min(sb) > max(sa) or max(sb) < min(sa)
    if max(_spread(sa), _spread(sb)) > bound and not apart:
        return "unresolved"
    if worse > bound:
        return "regression"
    return "improved" if worse < -bound else "ok"


def compare(a_doc: Dict[str, Any],
            b_doc: Dict[str, Any]) -> "tuple[List[str], int]":
    """Rows to print and the number of failing rows."""
    rows = [f"{'workload':<20} {'metric':<42} {'A median [q1, q3]':>36} "
            f"{'B median [q1, q3]':>36} {'B vs A':>8}  verdict"]
    failing = 0
    for name, wa in a_doc["workloads"].items():
        wb = b_doc["workloads"].get(name)
        if wb is None:
            rows.append(f"{name:<20} missing from B")
            failing += 1
            continue
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None:
                word = "missing"
            elif metric in USER_FACING:
                _, better, bound = USER_FACING[metric]
                word = verdict(ma, mb, better, bound)
            else:
                word = "-"
            failing += word in FAILING
            cells = []
            for m in (ma, mb):
                if m is None:
                    cells.append("-")
                    continue
                q1, _, q3 = quartiles(_samples(m))
                cells.append(f"{m['value']:.6g} [{q1:.6g}, {q3:.6g}]")
            change = ((mb["value"] - ma["value"]) / abs(ma["value"])
                      if mb is not None and ma["value"] else 0.0)
            rows.append(f"{name:<20} {metric:<42} {cells[0]:>36} "
                        f"{cells[1]:>36} {change:>+8.1%}  {word}")
    return rows, failing


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", type=Path, help="parent's run.py --out file")
    ap.add_argument("b", type=Path, help="the change's run.py --out file")
    args = ap.parse_args(argv)
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b)]
    rows, failing = compare(docs[0], docs[1])
    print("\n".join(rows))
    if failing:
        print(f"{failing} failing row(s)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
