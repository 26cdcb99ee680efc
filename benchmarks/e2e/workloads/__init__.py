"""The five workloads.  Each module exposes the same surface:

``SIZES``
    ``bench``, the one measured size: a body of three to four seconds, so
    that set-up probes, a warm-up and three bodies fit one driver run
    even when the sandbox runs 40% slow.  ``smoke`` only checks the
    harness (``test_harness.py``).
``inputs(seed, size)``
    Pure: everything generated from the seed, as a JSON-able dict.
``setup(seed, size, scratch)`` / ``teardown(ctx)``
    Imports, input generation, server start: what ``setup_s`` times.
``body(ctx, checks)``
    One timed body with tracing off.  Returns ``{"values": {...},
    "pools": {...}}``: scalars (median over bodies) and latency samples
    (pooled over bodies, then a percentile by ``POOLS``).
``traced(ctx, checks, spans)``
    The traced pass: per-layer metrics, by name.
"""

import importlib

NAMES = ("campaign_fig12_14", "fluid_cityscale", "packet_des_figs",
         "batch_ec2_mixed", "transport_loopback")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    return importlib.import_module(f"workloads.{name}")
