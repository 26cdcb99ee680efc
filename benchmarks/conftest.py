"""Shared benchmark plumbing.

The ``bench_*`` modules time the engines, the campaign path and the
observability overhead, and check the extensions beyond the paper (DWC,
schedulers, model consistency, responsiveness) under pytest-benchmark:
``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see their tables).
The paper's own claims are the rows of ``repro.experiments.claims``
(``python -m repro claims``); ``benchmarks/e2e/`` is the end-to-end harness.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
