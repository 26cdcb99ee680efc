"""Struct-of-arrays batch engine: thousands of connections per numpy pass.

All per-subflow sender state (window, RFC 6298 estimator, RTO backoff,
burst/deadline, counters — the fields named by
:data:`repro.net.batch.model.MIRRORED_SENDER_FIELDS`) lives in
preallocated ``[n_connections, max_subflows]`` arrays.  A
:class:`repro.net.events.TickCohorts` scheduler groups same-deadline
rounds; each cohort advances in one masked pass per (subflow-slot,
algorithm) group: a vectorized estimator update followed by a per-ACK
mask loop whose slow-start / HyStart / congestion-avoidance lanes call
the vector kernels in :mod:`repro.net.batch.model`
(``epsilon_exact_array``, ``dts_increase_array``, ``lia_increase_array``).

Rare paths — any round with a loss (fast-retransmit or RTO semantics),
bursts beyond :data:`repro.net.batch.model.MAX_VECTOR_BURST`, and every
round of a connection whose controller has no vector rule — fall back to
:func:`repro.net.batch.model.scalar_round`, i.e. the exact scalar
transition path of :mod:`repro.transport.core`, operating on the arrays
through attribute views.  The fallback is re-entrant: a connection whose
round was lossy rejoins the vector path on its next clean round.

Completed connections are compacted away: once enough rows have drained
their supply, live rows are packed to the array front (their final
metrics are archived first), so long sweeps with mixed flow sizes keep
their vector width proportional to the live population.

Bit-exactness with the scalar oracle is by construction: identical IEEE
operation order per lane (column folds match Python's left-to-right
``sum()``/``max()``), identical uniform-draw order (one block per tick,
sliced in (connection, slot) order), and a shared ``np.exp`` for the DTS
sigmoid.  The hypothesis suite in ``tests/test_batch_equivalence.py``
asserts it trajectory-step by trajectory-step.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.net.batch import model
from repro.net.batch.model import (
    dts_increase_array,
    epsilon_exact_array,
    lia_increase_array,
)
from repro.net.batch.scenario import BatchScenario
from repro.net.events import TickCohorts
from repro.transport.core import MAX_RTO, MIN_RTO, PathProfile, hystart_check

_KIND_DTS = 0
_KIND_LIA = 1
_KIND_SCALAR = 2


class _ArrayConnPort:
    """Connection-level supply state viewed through the engine arrays."""

    __slots__ = ("eng", "handle")

    def __init__(self, eng: "BatchEngine", handle: "_ConnHandle"):
        self.eng = eng
        self.handle = handle

    @property
    def gid(self) -> int:
        return self.handle.gid

    @property
    def spec(self):
        return self.handle.spec

    @property
    def total(self) -> Optional[int]:
        t = int(self.eng.total[self.handle.row])
        return None if t < 0 else t

    @property
    def assigned(self) -> int:
        return int(self.eng.assigned[self.handle.row])

    @assigned.setter
    def assigned(self, value: int) -> None:
        self.eng.assigned[self.handle.row] = value

    @property
    def acked(self) -> int:
        return int(self.eng.acked[self.handle.row])

    @acked.setter
    def acked(self, value: int) -> None:
        self.eng.acked[self.handle.row] = value

    @property
    def completion_tick(self) -> Optional[int]:
        t = int(self.eng.completion[self.handle.row])
        return None if t < 0 else t

    @completion_tick.setter
    def completion_tick(self, value: Optional[int]) -> None:
        self.eng.completion[self.handle.row] = -1 if value is None else value


def _float_slot(name: str, doc: str = ""):
    def fget(self):
        return float(getattr(self.eng, name)[self.handle.row, self.k])

    def fset(self, value):
        getattr(self.eng, name)[self.handle.row, self.k] = value

    return property(fget, fset, doc=doc)


def _int_slot(name: str, doc: str = ""):
    def fget(self):
        return int(getattr(self.eng, name)[self.handle.row, self.k])

    def fset(self, value):
        getattr(self.eng, name)[self.handle.row, self.k] = value

    return property(fget, fset, doc=doc)


def _optional_slot(name: str, doc: str = ""):
    """NaN in the array <-> ``None`` on the scalar side."""

    def fget(self):
        v = getattr(self.eng, name)[self.handle.row, self.k]
        return None if np.isnan(v) else float(v)

    def fset(self, value):
        getattr(self.eng, name)[self.handle.row, self.k] = (
            np.nan if value is None else value
        )

    return property(fget, fset, doc=doc)


class _ArraySubflowPort:
    """One subflow-slot viewed through the arrays, quacking like
    :class:`repro.net.batch.model.SubflowPort` for the scalar fallback."""

    __slots__ = ("eng", "handle", "k", "path", "route", "sim", "subflow_index",
                 "probe", "seg_time", "over_limit", "rwnd")

    def __init__(self, eng: "BatchEngine", handle: "_ConnHandle", k: int):
        self.eng = eng
        self.handle = handle
        self.k = k
        spec = handle.spec
        self.path = spec.paths[k]
        self.route = PathProfile(
            base_rtt=self.path.base_rtt, switch_hops=self.path.switch_hops
        )
        self.sim = eng.clock
        self.subflow_index = k
        self.probe = None
        self.seg_time = self.path.seg_time(spec.packet_bytes)
        self.over_limit = self.path.over_limit(spec.packet_bytes)
        self.rwnd = float(spec.rwnd_segments)

    cwnd = _float_slot("cwnd_a")
    ssthresh = _float_slot("ssthresh_a")
    srtt = _optional_slot("srtt_a")
    rttvar = _optional_slot("rttvar_a")
    base_rtt = _float_slot("base_state_a")
    latest_rtt = _optional_slot("latest_a")
    rto = _float_slot("rto_a")
    _rto_backoff = _float_slot("backoff_a")
    burst = _int_slot("burst_a")
    deadline_tick = _int_slot("deadline_a")
    packets_sent = _int_slot("packets_sent_a")
    retransmitted = _int_slot("retransmitted_a")
    fast_retransmits = _int_slot("fast_rtx_a")
    timeouts = _int_slot("timeouts_a")
    loss_events = _int_slot("loss_events_a")
    rounds = _int_slot("rounds_a")

    @property
    def active(self) -> bool:
        return bool(self.eng.active_a[self.handle.row, self.k])

    @active.setter
    def active(self, value: bool) -> None:
        self.eng.active_a[self.handle.row, self.k] = value

    @property
    def controller(self):
        return self.handle.controller

    @property
    def rtt(self) -> float:
        srtt = self.srtt
        if srtt is not None:
            return srtt
        return max(self.route.base_rtt(), 1e-6)

    def _hystart_check(self) -> None:
        hystart_check(self)


class _ConnHandle:
    """Per-connection bookkeeping: array row, controller, fallback ports."""

    __slots__ = ("gid", "row", "spec", "kind", "_controller", "_ports", "_conn_port",
                 "eng")

    def __init__(self, eng: "BatchEngine", gid: int, row: int, spec, kind: int):
        self.eng = eng
        self.gid = gid
        self.row = row
        self.spec = spec
        self.kind = kind
        self._controller = None
        self._ports: Optional[List[_ArraySubflowPort]] = None
        self._conn_port: Optional[_ArrayConnPort] = None

    @property
    def controller(self):
        if self._controller is None:
            ctrl, _ = model.make_controller(
                self.spec.algorithm, self.spec.controller_kwargs
            )
            ctrl.attach(self.ports)
            self._controller = ctrl
        return self._controller

    @property
    def ports(self) -> List[_ArraySubflowPort]:
        if self._ports is None:
            self._ports = [
                _ArraySubflowPort(self.eng, self, k)
                for k in range(self.spec.n_subflows)
            ]
        return self._ports

    @property
    def conn_port(self) -> _ArrayConnPort:
        if self._conn_port is None:
            self._conn_port = _ArrayConnPort(self.eng, self)
        return self._conn_port


class BatchEngine:
    """Vectorized execution of a :class:`BatchScenario` (see module doc)."""

    def __init__(
        self,
        scenario: BatchScenario,
        *,
        record: bool = False,
        compact_fraction: float = 0.25,
        compact_min_rows: int = 64,
        metrics: Optional["obs.MetricsRegistry"] = None,
    ):
        self.scenario = scenario
        self.rng = np.random.default_rng(scenario.seed)
        self.record = record
        self.trajectory: List[tuple] = []
        self.clock = model._Clock()
        self.compact_fraction = compact_fraction
        self.compact_min_rows = compact_min_rows
        self.counters: Dict[str, int] = {
            "rounds": 0,
            "cohort_ticks": 0,
            "vector_rounds": 0,
            "fallback_rounds": 0,
            "compactions": 0,
        }
        self.metrics = metrics if metrics is not None else obs.registry_or_new()
        self._vector_counter = self.metrics.counter("batch.vector_rounds")
        self._fallback_counter = self.metrics.counter("batch.fallback_rounds")
        self._wall_counter = self.metrics.counter("batch.wall_time_s")

        n = scenario.n_connections
        s = scenario.max_subflows
        self.n_slots = s
        shape = (n, s)
        # --- per-subflow SoA state (MIRRORED_SENDER_FIELDS + scheduling) ---
        self.cwnd_a = np.zeros(shape)
        self.ssthresh_a = np.full(shape, 1e12)
        self.srtt_a = np.full(shape, np.nan)
        self.rttvar_a = np.full(shape, np.nan)
        self.base_state_a = np.full(shape, np.inf)
        self.latest_a = np.full(shape, np.nan)
        self.rto_a = np.full(shape, 1.0)
        self.backoff_a = np.ones(shape)
        self.rwnd_a = np.ones(shape)
        self.base_path_a = np.ones(shape)
        self.seg_time_a = np.zeros(shape)
        self.loss_p_a = np.zeros(shape)
        self.over_limit_a = np.zeros(shape, dtype=np.int64)
        self.burst_a = np.zeros(shape, dtype=np.int64)
        self.deadline_a = np.full(shape, -1, dtype=np.int64)
        self.packets_sent_a = np.zeros(shape, dtype=np.int64)
        self.retransmitted_a = np.zeros(shape, dtype=np.int64)
        self.fast_rtx_a = np.zeros(shape, dtype=np.int64)
        self.timeouts_a = np.zeros(shape, dtype=np.int64)
        self.loss_events_a = np.zeros(shape, dtype=np.int64)
        self.rounds_a = np.zeros(shape, dtype=np.int64)
        self.active_a = np.zeros(shape, dtype=bool)
        self.slot_exists_a = np.zeros(shape, dtype=bool)
        # --- per-connection state ---
        self.total = np.full(n, -1, dtype=np.int64)
        self.assigned = np.zeros(n, dtype=np.int64)
        self.acked = np.zeros(n, dtype=np.int64)
        self.completion = np.full(n, -1, dtype=np.int64)
        self.kind = np.full(n, _KIND_SCALAR, dtype=np.int8)
        self.dts_c = np.ones(n)
        self.dts_slope = np.full(n, 10.0)
        self.dts_center = np.full(n, 0.5)
        self.dts_ceiling = np.full(n, 2.0)

        self.handles: List[_ConnHandle] = []
        self._row_of: Dict[int, int] = {}
        #: row index -> original connection id (identity until compaction)
        self._gids: List[int] = list(range(n))
        self._archived: Dict[int, Dict[str, Any]] = {}
        self._archived_final: Dict[int, List[tuple]] = {}
        self.cohorts = TickCohorts()

        tick = scenario.tick
        for gid, spec in enumerate(scenario.connections):
            row = gid
            ctrl, vector = model.make_controller(spec.algorithm, spec.controller_kwargs)
            kind = {"dts": _KIND_DTS, "lia": _KIND_LIA, None: _KIND_SCALAR}[vector]
            self.kind[row] = kind
            handle = _ConnHandle(self, gid, row, spec, kind)
            self.handles.append(handle)
            self._row_of[gid] = row
            if kind == _KIND_DTS:
                self.dts_c[row] = ctrl.c
                self.dts_slope[row] = ctrl.factor.slope
                self.dts_center[row] = ctrl.factor.center
                self.dts_ceiling[row] = ctrl.factor.ceiling
            if spec.total_segments is not None:
                self.total[row] = spec.total_segments
            for k, path in enumerate(spec.paths):
                self.slot_exists_a[row, k] = True
                self.cwnd_a[row, k] = float(spec.initial_cwnd)
                self.rwnd_a[row, k] = float(spec.rwnd_segments)
                self.base_path_a[row, k] = path.base_rtt
                self.seg_time_a[row, k] = path.seg_time(spec.packet_bytes)
                self.loss_p_a[row, k] = path.loss_rate
                self.over_limit_a[row, k] = path.over_limit(spec.packet_bytes)
                # initial burst, identical arithmetic to model.take_burst
                w = int(min(self.cwnd_a[row, k], self.rwnd_a[row, k]))
                remaining = (
                    w
                    if spec.total_segments is None
                    else min(w, spec.total_segments - int(self.assigned[row]))
                )
                if remaining <= 0:
                    continue
                self.assigned[row] += remaining
                self.packets_sent_a[row, k] = remaining
                self.burst_a[row, k] = remaining
                self.active_a[row, k] = True
                delay = path.base_rtt + remaining * self.seg_time_a[row, k]
                dt = max(1, math.ceil(delay / tick))
                self.deadline_a[row, k] = dt
                self.cohorts.push(dt, (gid, k))

    # -------------------------------------------------------------- run

    def run(self) -> "BatchEngine":
        wall_start = time.perf_counter()
        horizon = self.scenario.horizon_tick
        try:
            while self.cohorts:
                tick = self.cohorts.peek_tick()
                if tick is None or tick > horizon:
                    break
                _, keys = self.cohorts.pop_cohort()
                self._step_tick(tick, keys)
                self._maybe_compact()
        finally:
            self._wall_counter.inc(time.perf_counter() - wall_start)
        return self

    def _step_tick(self, t: int, keys: List[Tuple[int, int]]) -> None:
        """Advance every round due at tick ``t`` (keys sorted (gid, slot))."""
        self.counters["cohort_ticks"] += 1
        self.counters["rounds"] += len(keys)
        self.clock.now = t * self.scenario.tick
        rows = np.fromiter(
            (self._row_of[g] for g, _ in keys), dtype=np.int64, count=len(keys)
        )
        slots = np.fromiter((k for _, k in keys), dtype=np.int64, count=len(keys))
        n_arr = self.burst_a[rows, slots]
        # One uniform block per tick, consumed in (gid, slot) order — the
        # same stream the oracle draws round by round.
        total_draws = int(n_arr.sum())
        block = self.rng.random(total_draws)
        ends = np.cumsum(n_arr)
        starts = ends - n_arr
        min_u = np.minimum.reduceat(block, starts)
        lossy = (min_u < self.loss_p_a[rows, slots]) | (
            n_arr > self.over_limit_a[rows, slots]
        )
        vec_ok = (
            ~lossy
            & (n_arr <= model.MAX_VECTOR_BURST)
            & (self.kind[rows] != _KIND_SCALAR)
        )
        records: List[tuple] = []
        for k in range(self.n_slots):
            in_slot = slots == k
            if not in_slot.any():
                continue
            for kind_code in (_KIND_DTS, _KIND_LIA):
                grp = in_slot & vec_ok & (self.kind[rows] == kind_code)
                if grp.any():
                    self._vector_group(t, k, rows[grp], n_arr[grp], kind_code)
                    self.counters["vector_rounds"] += int(grp.sum())
                    self._vector_counter.inc(int(grp.sum()))
                    if self.record:
                        self._record_group(t, rows[grp], k, records)
            scal = in_slot & ~vec_ok
            if scal.any():
                for i in np.flatnonzero(scal):
                    gid = keys[i][0]
                    handle = self.handles_by_gid(gid)
                    sub = handle.ports[k]
                    conn = handle.conn_port
                    u = block[starts[i]:ends[i]]
                    model.scalar_round(sub, conn, u, t, self.scenario.tick)
                    self.counters["fallback_rounds"] += 1
                    self._fallback_counter.inc()
                    if sub.active and sub.deadline_tick <= self.scenario.horizon_tick:
                        self.cohorts.push(sub.deadline_tick, (gid, k))
                    if self.record:
                        records.append(model.subflow_record(sub, conn, t))
        if self.record:
            records.sort(key=lambda r: (r[1], r[2]))
            self.trajectory.extend(records)

    def handles_by_gid(self, gid: int) -> _ConnHandle:
        return self.handles[gid]

    # ----------------------------------------------------- vector kernels

    def _vector_group(self, t: int, k: int, rows: np.ndarray, n: np.ndarray,
                      kind_code: int) -> None:
        """One clean (loss-free) round for a cohort of same-slot lanes."""
        base_p = self.base_path_a[rows, k]
        segt = self.seg_time_a[rows, k]
        sample = base_p + n * segt
        # --- RFC 6298 estimator, mirroring transport.core.absorb_rtt_sample
        self.latest_a[rows, k] = sample
        bs = np.minimum(self.base_state_a[rows, k], sample)
        self.base_state_a[rows, k] = bs
        sr = self.srtt_a[rows, k]
        rv = self.rttvar_a[rows, k]
        first = np.isnan(sr)
        with np.errstate(invalid="ignore"):
            rv = np.where(first, sample / 2, 0.75 * rv + 0.25 * np.abs(sr - sample))
            sr = np.where(first, sample, 0.875 * sr + 0.125 * sample)
        self.rttvar_a[rows, k] = rv
        self.srtt_a[rows, k] = sr
        self.rto_a[rows, k] = np.minimum(MAX_RTO, np.maximum(MIN_RTO, sr + 4 * rv))
        # clean round: every lane has a leading new-ACK run
        self.backoff_a[rows, k] = 1.0
        acked = self.acked[rows] + n
        self.acked[rows] = acked
        finished = (self.total[rows] >= 0) & (acked >= self.total[rows]) & (
            self.completion[rows] < 0
        )
        if finished.any():
            self.completion[rows[finished]] = t
        # --- per-ACK growth loop (grow_window as boolean-mask kernels)
        cw_full = self.cwnd_a[rows]
        with np.errstate(invalid="ignore"):
            reff = np.where(
                np.isnan(self.srtt_a[rows]),
                np.maximum(self.base_path_a[rows], 1e-6),
                self.srtt_a[rows],
            )
        cw = cw_full[:, k].copy()
        ssth = self.ssthresh_a[rows, k]
        exceed = sample > (bs + np.maximum(0.008, bs / 2))
        psi = None
        if kind_code == _KIND_DTS:
            psi = self.dts_c[rows] * epsilon_exact_array(
                bs,
                sample,
                slope=self.dts_slope[rows],
                center=self.dts_center[rows],
                ceiling=self.dts_ceiling[rows],
            )
        n_slots = self.n_slots
        maybe_ss = True
        max_n = int(n.max())
        for j in range(max_n):
            act = j < n
            if maybe_ss:
                ss = act & (cw < ssth)
                maybe_ss = bool(ss.any())
                ca = act & ~ss
            else:
                ss = None
                ca = act
            if ca.any():
                tot = cw_full[:, 0] / reff[:, 0]
                for kk in range(1, n_slots):
                    tot = tot + cw_full[:, kk] / reff[:, kk]
                if kind_code == _KIND_DTS:
                    grown = dts_increase_array(cw, reff[:, k], psi, tot)
                else:
                    best = cw_full[:, 0] / (reff[:, 0] * reff[:, 0])
                    for kk in range(1, n_slots):
                        best = np.maximum(
                            best, cw_full[:, kk] / (reff[:, kk] * reff[:, kk])
                        )
                    grown = lia_increase_array(cw, best, tot)
                cw = np.where(ca, grown, cw)
            if ss is not None and maybe_ss:
                cw_ss = cw + 1.0
                hs = ss & (cw_ss >= 16.0) & exceed
                ssth = np.where(hs, cw_ss, ssth)
                cw = np.where(ss, cw_ss, cw)
            cw_full[:, k] = cw
        self.cwnd_a[rows, k] = cw
        self.ssthresh_a[rows, k] = ssth
        self.rounds_a[rows, k] += 1
        # --- next burst from the shared supply (model.take_burst, masked)
        w = np.minimum(cw, self.rwnd_a[rows, k]).astype(np.int64)
        tot_c = self.total[rows]
        m = np.where(tot_c < 0, w, np.minimum(w, tot_c - self.assigned[rows]))
        live = m > 0
        granted = np.where(live, m, 0)
        self.assigned[rows] += granted
        self.packets_sent_a[rows, k] += granted
        self.burst_a[rows, k] = granted
        self.active_a[rows, k] = live
        delay = base_p + m * segt
        dt = t + np.maximum(1, np.ceil(delay / self.scenario.tick).astype(np.int64))
        deadline = np.where(live, dt, -1)
        self.deadline_a[rows, k] = deadline
        horizon = self.scenario.horizon_tick
        for i in np.flatnonzero(live & (deadline <= horizon)):
            self.cohorts.push(int(deadline[i]), (self.handles_row_gid(rows[i]), k))

    def handles_row_gid(self, row: int) -> int:
        return self._gids[row]

    def _record_group(self, t: int, rows: np.ndarray, k: int,
                      records: List[tuple]) -> None:
        for row in rows:
            gid = self.handles_row_gid(int(row))
            handle = self.handles_by_gid(gid)
            records.append(
                model.subflow_record(handle.ports[k], handle.conn_port, t)
            )

    # -------------------------------------------------------- compaction

    def _maybe_compact(self) -> None:
        """Archive fully-drained connections and pack live rows forward."""
        n_rows = self.cwnd_a.shape[0]
        if n_rows == 0:
            return
        drained = ~(self.active_a & self.slot_exists_a).any(axis=1)
        n_drained = int(drained.sum())
        if n_drained < max(self.compact_min_rows, int(n_rows * self.compact_fraction)):
            return
        keep = ~drained
        for row in np.flatnonzero(drained):
            gid = self.handles_row_gid(int(row))
            self._archive(gid)
        # pack every array; relative order of survivors is preserved
        for name in _COMPACTED_2D + _COMPACTED_1D:
            setattr(self, name, getattr(self, name)[keep])
        live_gids = [
            self.handles_row_gid(int(row)) for row in np.flatnonzero(keep)
        ]
        self._gids = live_gids
        self._row_of = {gid: i for i, gid in enumerate(live_gids)}
        for gid, row in self._row_of.items():
            self.handles[gid].row = row
        self.counters["compactions"] += 1

    def _archive(self, gid: int) -> None:
        handle = self.handles_by_gid(gid)
        conn = handle.conn_port
        self._archived[gid] = model.connection_snapshot(
            conn, handle.ports, self.scenario
        )
        self._archived_final[gid] = [
            model.subflow_record(port, conn, -1) for port in handle.ports
        ]

    # ------------------------------------------------------------ results

    def final_state(self) -> Dict[tuple, tuple]:
        """Per-subflow terminal state keyed by (gid, slot), for tests."""
        out: Dict[tuple, tuple] = {}
        for gid, recs in self._archived_final.items():
            for rec in recs:
                out[(gid, rec[2])] = rec
        for gid in self._row_of:
            handle = self.handles_by_gid(gid)
            conn = handle.conn_port
            for port in handle.ports:
                out[(gid, port.subflow_index)] = model.subflow_record(port, conn, -1)
        return out

    def result(self) -> Dict[str, Any]:
        snapshots: Dict[int, Dict[str, Any]] = dict(self._archived)
        for gid in self._row_of:
            handle = self.handles_by_gid(gid)
            snapshots[gid] = model.connection_snapshot(
                handle.conn_port, handle.ports, self.scenario
            )
        ordered = [snapshots[gid] for gid in sorted(snapshots)]
        return model.assemble_result(ordered, self.scenario)

    def rng_state(self) -> Optional[dict]:
        return self.rng.bit_generator.state


_COMPACTED_2D = [
    "cwnd_a", "ssthresh_a", "srtt_a", "rttvar_a", "base_state_a", "latest_a",
    "rto_a", "backoff_a", "rwnd_a", "base_path_a", "seg_time_a", "loss_p_a",
    "over_limit_a", "burst_a", "deadline_a", "packets_sent_a",
    "retransmitted_a", "fast_rtx_a", "timeouts_a", "loss_events_a",
    "rounds_a", "active_a", "slot_exists_a",
]
_COMPACTED_1D = [
    "total", "assigned", "acked", "completion", "kind",
    "dts_c", "dts_slope", "dts_center", "dts_ceiling",
]
