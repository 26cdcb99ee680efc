"""Batched packet engine: struct-of-arrays stepping for thousands of
TCP/MPTCP connections.

Entry points:

- :func:`repro.net.batch.scenario.ec2_scenario` / the scenario
  dataclasses — declare a run;
- :class:`repro.net.batch.engine.BatchEngine` — the vectorized engine.

:class:`repro.net.batch.oracle.OracleEngine` executes the same round
model one connection at a time: the reference the equivalence tests and
the ``engine.packet_megascale`` bench case compare the engine with. See
:mod:`repro.net.batch.model` for the shared round semantics and the
bit-exactness contract between the two.
"""

from __future__ import annotations

from repro.net.batch.engine import BatchEngine
from repro.net.batch.model import MAX_VECTOR_BURST, VECTOR_ALGORITHMS
from repro.net.batch.scenario import (
    BatchConnection,
    BatchPath,
    BatchScenario,
    ec2_scenario,
)

__all__ = [
    "MAX_VECTOR_BURST",
    "VECTOR_ALGORITHMS",
    "BatchConnection",
    "BatchEngine",
    "BatchPath",
    "BatchScenario",
    "ec2_scenario",
]
