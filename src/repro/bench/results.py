"""Benchmark result documents: the ``BENCH_<suite>.json`` schema.

Every suite run produces one JSON document so the performance trajectory
of the repo is a diffable series of committed files rather than
scrollback.  The document carries, per case, the **raw samples** (so a
re-analysis never needs the original machine) plus robust summary
statistics — median and MAD (median absolute deviation), which unlike
mean/stddev are not dragged around by the occasional scheduler hiccup —
and the run's :class:`~repro.obs.manifest.RunManifest` provenance, since
a wall-time number without its host/toolchain context is noise.

A case that raised is still a case of the document: it carries ``error``
(the exception and where it was raised), its ``traceback`` and whatever
samples it finished, but no statistics, and :func:`failures` lists it by
name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

__all__ = ["BENCH_SCHEMA", "build_document", "case_stats",
           "default_output_name", "failures", "load", "mad", "median",
           "summary_rows", "validate", "write"]

#: Bump when the result document shape changes.
BENCH_SCHEMA = "repro.bench/1"


def median(xs: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not xs:
        raise ValueError("median of empty sequence")
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def mad(xs: Sequence[float]) -> float:
    """Median absolute deviation — the robust spread estimate the
    regression gate thresholds on."""
    m = median(xs)
    return median([abs(x - m) for x in xs])


def case_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Summary statistics for one case's wall-time samples."""
    return {
        "median_s": median(samples),
        "mad_s": mad(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "mean_s": sum(samples) / len(samples),
    }


def default_output_name(suite: str) -> str:
    return f"BENCH_{suite}.json"


def build_document(
    *,
    suite: str,
    config: Dict[str, Any],
    manifest: Dict[str, Any],
    cases: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble a schema-valid result document from runner output."""
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "config": dict(config),
        "manifest": dict(manifest),
        "cases": {name: dict(case) for name, case in sorted(cases.items())},
    }
    validate(doc)
    return doc


_CASE_REQUIRED = ("samples_s", "median_s", "mad_s", "min_s")


def validate(doc: Any) -> Dict[str, Any]:
    """Check a parsed document against the schema; returns it.

    Raises ValueError naming the first offending field, so CI failures
    on hand-edited baselines are self-explanatory.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"bench document must be an object, got {type(doc)}")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"not a {BENCH_SCHEMA} document "
                         f"(schema={doc.get('schema')!r})")
    for key in ("suite", "config", "manifest", "cases"):
        if key not in doc:
            raise ValueError(f"bench document missing {key!r}")
    for key in ("config", "manifest"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"bench {key!r} must be an object")
    if not isinstance(doc["cases"], dict):
        raise ValueError("bench 'cases' must be an object keyed by case name")
    for name, case in doc["cases"].items():
        if not isinstance(case, dict):
            raise ValueError(f"case {name!r} must be an object")
        failed = "error" in case
        if failed and not isinstance(case["error"], str):
            raise ValueError(f"case {name!r} error must be a string")
        for key in ("samples_s",) if failed else _CASE_REQUIRED:
            if key not in case:
                raise ValueError(f"case {name!r} missing {key!r}")
        samples = case["samples_s"]
        if (not isinstance(samples, list) or not (samples or failed)
                or not all(isinstance(s, (int, float)) for s in samples)):
            raise ValueError(f"case {name!r} samples_s must be a non-empty "
                             f"list of numbers")
        for key in () if failed else _CASE_REQUIRED[1:]:
            if not isinstance(case[key], (int, float)):
                raise ValueError(f"case {name!r} {key} must be a number")
        if not isinstance(case.get("metrics", {}), dict):
            raise ValueError(f"case {name!r} metrics must be an object")
        if not isinstance(case.get("profile") or {}, dict):
            raise ValueError(f"case {name!r} profile must be an object")
    return doc


def failures(doc: Dict[str, Any]) -> Dict[str, str]:
    """``{case name: error}`` for every case that raised, name-sorted."""
    return {name: case["error"] for name, case in sorted(doc["cases"].items())
            if "error" in case}


def write(doc: Dict[str, Any], path: "str | Path") -> Path:
    """Validate and write one result document; returns the path."""
    validate(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load(path: "str | Path") -> Dict[str, Any]:
    """Read and validate a result document."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    try:
        return validate(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def summary_rows(doc: Dict[str, Any]) -> List[List[Any]]:
    """Per-case table rows (name, n, median/mad/min ms) for reports; a
    failed case reads FAILED in place of its median."""
    rows: List[List[Any]] = []
    for name in sorted(doc["cases"]):
        case = doc["cases"][name]
        n = len(case["samples_s"])
        if "error" in case:
            rows.append([name, n, "FAILED", "", ""])
        else:
            rows.append([name, n, case["median_s"] * 1e3,
                         case["mad_s"] * 1e3, case["min_s"] * 1e3])
    return rows
