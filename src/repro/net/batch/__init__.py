"""Batched packet engine: struct-of-arrays stepping for thousands of
TCP/MPTCP connections.

Entry points:

- :func:`repro.net.batch.scenario.ec2_scenario` / the scenario
  dataclasses — declare a run (standard library only);
- :class:`repro.net.batch.engine.BatchEngine` — the vectorized engine
  (numpy).

:class:`repro.net.batch.oracle.OracleEngine` executes the same round
model one connection at a time: the reference the equivalence tests and
the ``engine.packet_megascale`` bench case compare the engine with. See
:mod:`repro.net.batch.model` for the shared round semantics and the
bit-exactness contract between the two.

Every name resolves on first access (PEP 562, :mod:`repro._lazy`), so a
process that only declares scenarios loads neither numpy nor the engine
(DESIGN.md §8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.batch.engine import BatchEngine
    from repro.net.batch.model import MAX_VECTOR_BURST, VECTOR_ALGORITHMS
    from repro.net.batch.scenario import (
        BatchConnection,
        BatchPath,
        BatchScenario,
        ec2_scenario,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.batch.engine": ("BatchEngine",),
    "repro.net.batch.model": ("MAX_VECTOR_BURST", "VECTOR_ALGORITHMS"),
    "repro.net.batch.scenario": (
        "BatchConnection", "BatchPath", "BatchScenario", "ec2_scenario",
    ),
})

__all__ = [
    "MAX_VECTOR_BURST",
    "VECTOR_ALGORITHMS",
    "BatchConnection",
    "BatchEngine",
    "BatchPath",
    "BatchScenario",
    "ec2_scenario",
]
