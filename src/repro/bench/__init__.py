"""`repro.bench` — continuous performance observability.

The performance counterpart of :mod:`repro.obs`: where obs answers
"what did this run do", bench answers "is the system getting faster or
slower, and where is the time going" — across PRs, as a committed
``BENCH_<suite>.json`` trajectory.

* :mod:`repro.bench.runner` — declarative :class:`BenchCase` registry
  plus a runner with warmup, repeated timing under a pinned seed,
  per-case obs metrics snapshots, and manifest provenance.
* :mod:`repro.bench.results` — the ``BENCH_*`` JSON schema: raw
  samples plus median/MAD/min per case.
* :mod:`repro.bench.compare` — the noise-aware regression gate
  (relative tolerance + MAD allowance) CI runs against the committed
  baseline.
* :mod:`repro.bench.profile` — cProfile capture and a sampling stack
  profiler whose collapsed-stack output feeds flamegraph tools.
* :mod:`repro.bench.cases` — the built-in engine/campaign/obs cases;
  ``benchmarks/bench_*.py`` reuse the same bodies under
  pytest-benchmark.

CLI: ``python -m repro bench {run,compare,profile,list}``; see
docs/BENCHMARKS.md.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bench.compare import (
        CaseComparison,
        Comparison,
        compare_documents,
        comparison_to_dict,
        render_comparison,
    )
    from repro.bench.profile import SamplingProfiler, capture_cprofile, parse_collapsed
    from repro.bench.results import BENCH_SCHEMA
    from repro.bench.runner import (
        BenchCase,
        BenchContext,
        all_cases,
        discover,
        register,
        run_suite,
        select_cases,
        suite_names,
    )

# Resolved on first access (PEP 562): ``obs report`` reads result files
# through ``repro.bench.results`` and must not load the runner (and with
# it ``hashlib`` and OpenSSL) or the profilers.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.bench.compare": (
        "CaseComparison", "Comparison", "compare_documents", "comparison_to_dict",
        "render_comparison",
    ),
    "repro.bench.profile": ("SamplingProfiler", "capture_cprofile", "parse_collapsed"),
    "repro.bench.results": ("BENCH_SCHEMA",),
    "repro.bench.runner": (
        "BenchCase", "BenchContext", "all_cases", "discover", "register",
        "run_suite", "select_cases", "suite_names",
    ),
})

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "BenchContext",
    "CaseComparison",
    "Comparison",
    "SamplingProfiler",
    "all_cases",
    "capture_cprofile",
    "compare_documents",
    "comparison_to_dict",
    "discover",
    "parse_collapsed",
    "register",
    "render_comparison",
    "run_suite",
    "select_cases",
    "suite_names",
]
