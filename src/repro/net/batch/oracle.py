"""The scalar oracle: per-subflow event loop over the shared round model.

Every round of every connection goes through
:func:`repro.net.batch.model.scalar_round` — the per-connection scalar
transition path built on :mod:`repro.transport.core` and the real
:mod:`repro.algorithms` controllers.  This engine is the ground truth
the batched struct-of-arrays engine must match bit-for-bit; it is also
the baseline the ``engine.packet_megascale`` speedup gate measures
against.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

import numpy as np

from repro._uniforms import fill_random
from repro.net.batch import model
from repro.net.batch.scenario import BatchScenario
from repro.net.rand import Pcg64


class OracleEngine:
    """Heap-scheduled scalar execution of a :class:`BatchScenario`."""

    def __init__(self, scenario: BatchScenario, *, record: bool = False):
        self.scenario = scenario
        self.rng = Pcg64(scenario.seed)
        self.record = record
        self.trajectory: List[tuple] = []
        self.clock = model._Clock()
        self.conns: List[model.ConnState] = []
        self.subflows: List[List[model.SubflowPort]] = []
        self.counters: Dict[str, int] = {"rounds": 0, "cohort_ticks": 0}
        #: (tick, gid, slot) min-heap — pops in exactly the global round
        #: order the RNG contract requires.
        self._heap: List[tuple] = []
        for gid, spec in enumerate(scenario.connections):
            conn, ports, _ = model.open_connection(
                gid, spec, self.clock, scenario.tick
            )
            self.conns.append(conn)
            self.subflows.append(ports)
            for slot, port in enumerate(ports):
                if port.active:
                    heapq.heappush(self._heap, (port.deadline_tick, gid, slot))

    def run(self) -> "OracleEngine":
        """Process rounds in (tick, connection, slot) order to the horizon."""
        horizon = self.scenario.horizon_tick
        tick = self.scenario.tick
        heap = self._heap
        last_tick = -1
        while heap and heap[0][0] <= horizon:
            now_tick, gid, slot = heapq.heappop(heap)
            if now_tick != last_tick:
                self.counters["cohort_ticks"] += 1
                last_tick = now_tick
                self.clock.now = now_tick * tick
            sub = self.subflows[gid][slot]
            conn = self.conns[gid]
            u = fill_random(self.rng, np.empty(sub.burst))
            model.scalar_round(sub, conn, u, now_tick, tick)
            self.counters["rounds"] += 1
            if self.record:
                self.trajectory.append(model.subflow_record(sub, conn, now_tick))
            if sub.active and sub.deadline_tick <= horizon:
                heapq.heappush(heap, (sub.deadline_tick, gid, slot))
        return self

    # ------------------------------------------------------------- results

    def final_state(self) -> Dict[int, tuple]:
        """Per-subflow terminal state keyed by (gid, slot), for tests."""
        out = {}
        for conn, ports in zip(self.conns, self.subflows):
            for port in ports:
                out[(conn.gid, port.subflow_index)] = model.subflow_record(
                    port, conn, -1
                )
        return out

    def result(self) -> Dict[str, Any]:
        snapshots = [
            model.connection_snapshot(conn, ports, self.scenario)
            for conn, ports in zip(self.conns, self.subflows)
        ]
        return model.assemble_result(snapshots, self.scenario)

    def rng_state(self) -> Optional[dict]:
        return self.rng.state
