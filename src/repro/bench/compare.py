"""Noise-aware comparison of a bench run against a committed baseline.

Wall-time benchmarks are noisy; a naive "slower than last time" gate
either cries wolf on every scheduler hiccup or gets its tolerance opened
so wide it misses real regressions.  The gate here is robust on both
axes: per case, the **median** of the new samples must exceed

    baseline_median * (1 + tolerance) + mad_k * baseline_MAD

before we call it a regression — a relative budget for genuine
algorithmic drift plus an absolute noise allowance scaled by the
baseline's own observed spread (its median absolute deviation).  A
zero-variance baseline (MAD 0) degrades to the pure relative test.  The
comparison is deliberately **strict** (``>``): a case landing exactly on
the threshold passes, so the boundary is usable as a contract.

Symmetrically, medians below ``baseline * (1 - tolerance) - mad_k*MAD``
are reported as improvements (informational — they never gate, but they
are the cue to re-baseline so the win is locked in).

A case that raised in the current run is ``failed`` and fails the gate
by name, whatever its timings; one that raised only in the baseline has
nothing to gate on and reads ``new``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench import results as _results

__all__ = ["CaseComparison", "Comparison", "compare_documents",
           "comparison_to_dict", "render_comparison"]

DEFAULT_TOLERANCE = 0.10
DEFAULT_MAD_K = 3.0


@dataclass(frozen=True)
class CaseComparison:
    """Verdict for one case."""

    name: str
    #: "ok" | "regression" | "improvement" | "new" | "missing" | "failed"
    status: str
    current_median_s: Optional[float] = None
    baseline_median_s: Optional[float] = None
    threshold_s: Optional[float] = None
    #: current/baseline median ratio (None without both sides).
    ratio: Optional[float] = None
    #: what a failed case raised (None unless status is "failed").
    error: Optional[str] = None


@dataclass
class Comparison:
    """All case verdicts plus the gate decision."""

    cases: List[CaseComparison]
    tolerance: float
    mad_k: float
    allow_missing: bool

    @property
    def regressions(self) -> List[CaseComparison]:
        return [c for c in self.cases if c.status == "regression"]

    @property
    def missing(self) -> List[CaseComparison]:
        return [c for c in self.cases if c.status == "missing"]

    @property
    def failed(self) -> List[CaseComparison]:
        return [c for c in self.cases if c.status == "failed"]

    @property
    def ok(self) -> bool:
        """True when the gate passes."""
        if self.regressions or self.failed:
            return False
        if self.missing and not self.allow_missing:
            return False
        return True

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _compare_case(name: str, current: Dict[str, Any],
                  baseline: Dict[str, Any], tolerance: float,
                  mad_k: float) -> CaseComparison:
    cur = float(current["median_s"])
    base = float(baseline["median_s"])
    base_mad = float(baseline["mad_s"])
    noise = mad_k * base_mad
    upper = base * (1.0 + tolerance) + noise
    lower = base * (1.0 - tolerance) - noise
    if cur > upper:
        status = "regression"
    elif cur < lower:
        status = "improvement"
    else:
        status = "ok"
    return CaseComparison(
        name=name, status=status,
        current_median_s=cur, baseline_median_s=base, threshold_s=upper,
        ratio=(cur / base) if base > 0 else None,
    )


def compare_documents(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    mad_k: float = DEFAULT_MAD_K,
    allow_missing: bool = False,
) -> Comparison:
    """Compare two validated ``BENCH_*`` documents case by case.

    Cases only in ``current`` are ``new`` (no baseline to gate on);
    cases only in ``baseline`` are ``missing`` — a silently dropped
    benchmark fails the gate unless ``allow_missing`` (a rename shows up
    as one ``new`` plus one ``missing``, so it cannot slip through as a
    pass either).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if mad_k < 0:
        raise ValueError(f"mad_k must be >= 0, got {mad_k}")
    _results.validate(current)
    _results.validate(baseline)
    cur_cases: Dict[str, Any] = current["cases"]
    base_cases: Dict[str, Any] = baseline["cases"]

    cases: List[CaseComparison] = []
    for name in sorted(set(cur_cases) | set(base_cases)):
        cur, base = cur_cases.get(name), base_cases.get(name)
        if cur is not None and "error" in cur:
            cases.append(CaseComparison(name=name, status="failed",
                                        error=cur["error"]))
        elif cur is None:
            cases.append(CaseComparison(
                name=name, status="missing",
                baseline_median_s=base.get("median_s")))
        elif base is None or "error" in base:
            cases.append(CaseComparison(
                name=name, status="new",
                current_median_s=float(cur["median_s"])))
        else:
            cases.append(_compare_case(name, cur, base, tolerance, mad_k))
    return Comparison(cases=cases, tolerance=tolerance, mad_k=mad_k,
                      allow_missing=allow_missing)


def comparison_to_dict(comparison: Comparison) -> Dict[str, Any]:
    """Machine-readable form of a :class:`Comparison`.

    This is the CI contract behind ``bench compare --json`` (see
    docs/USAGE.md): top-level ``ok`` / ``exit_code`` / gate parameters,
    plus one entry per case keyed by name with its status and the
    medians/threshold/ratio the verdict was derived from. Keys are
    append-only; consumers must tolerate new ones.
    """
    return {
        "ok": comparison.ok,
        "exit_code": comparison.exit_code,
        "tolerance": comparison.tolerance,
        "mad_k": comparison.mad_k,
        "allow_missing": comparison.allow_missing,
        "counts": {
            "cases": len(comparison.cases),
            "regressions": len(comparison.regressions),
            "improvements": len([c for c in comparison.cases
                                 if c.status == "improvement"]),
            "missing": len(comparison.missing),
            "new": len([c for c in comparison.cases if c.status == "new"]),
            "failed": len(comparison.failed),
        },
        "cases": {
            c.name: {
                "status": c.status,
                "current_median_s": c.current_median_s,
                "baseline_median_s": c.baseline_median_s,
                "threshold_s": c.threshold_s,
                "ratio": c.ratio,
                "error": c.error,
            }
            for c in comparison.cases
        },
    }


def render_comparison(comparison: Comparison) -> str:
    """Human summary table plus a one-line verdict."""
    from repro.analysis.report import format_table

    def ms(value: Optional[float]) -> Any:
        return value * 1e3 if value is not None else ""

    rows = [[c.name, c.status, ms(c.current_median_s),
             ms(c.baseline_median_s), ms(c.threshold_s),
             c.ratio if c.ratio is not None else ""]
            for c in comparison.cases]
    table = format_table(
        ["case", "status", "median ms", "baseline ms", "threshold ms", "x"],
        rows)
    n_reg = len(comparison.regressions)
    n_missing = len(comparison.missing)
    verdict = "PASS" if comparison.ok else "FAIL"
    tail = (f"{verdict}: {len(comparison.cases)} cases, {n_reg} regressions, "
            f"{n_missing} missing, {len(comparison.failed)} failed "
            f"(tolerance={comparison.tolerance:g}, mad_k={comparison.mad_k:g})")
    return "\n".join([table, *(f"failed: {c.name}: {c.error}"
                               for c in comparison.failed), tail])
