"""Struct-of-arrays batch engine: thousands of connections per numpy pass.

All per-subflow sender state (window, RFC 6298 estimator, RTO backoff,
burst/deadline, counters) and per-connection supply state lives in
preallocated ``[n_connections, max_subflows]`` / ``[n_connections]``
arrays, every one of them listed once in :data:`_FIELDS`.  A
:class:`repro.net.events.TickCohorts` scheduler groups same-deadline
rounds; each cohort advances in one masked pass per (subflow-slot,
algorithm) group: a vectorized estimator update followed by a per-ACK
mask loop whose slow-start / HyStart / congestion-avoidance lanes call
the controllers' own rules on arrays (:func:`repro.core.dts.dts_factor`,
:func:`repro.algorithms.dts.dts_increase`,
:func:`repro.algorithms.lia.lia_increase`).

Rare paths — any round with a loss (fast-retransmit or RTO semantics),
bursts beyond :data:`repro.net.batch.model.MAX_VECTOR_BURST`, and every
round of a connection whose controller has no vector rule — fall back to
:func:`repro.net.batch.model.scalar_round`, i.e. the exact scalar
transition path of :mod:`repro.transport.core`, on the oracle's own
:class:`~repro.net.batch.model.ConnState` /
:class:`~repro.net.batch.model.SubflowPort` objects: the connection's
array row is copied into them before the round (:meth:`BatchEngine._load`)
and back after it (:meth:`BatchEngine._store`).  The arrays are the
state; the objects are scratch that is only valid between one load and
the next vector round, so every scalar read of a connection — a
fallback round, a trajectory record, an archive, ``result()`` — goes
through ``_load`` (DESIGN.md §13).  The fallback is re-entrant: a
connection whose round was lossy rejoins the vector path on its next
clean round.

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

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro._uniforms import fill_random
from repro.algorithms.dts import dts_increase
from repro.algorithms.lia import lia_increase
from repro.core.dts import dts_factor
from repro.net.batch import model
from repro.net.batch.scenario import BatchScenario
from repro.net.events import TickCohorts
from repro.net.rand import Pcg64
from repro.transport.core import MAX_RTO, MIN_RTO

_KIND_DTS = 0
_KIND_LIA = 1
_KIND_SCALAR = 2
#: ``model.make_controller``'s vector kind -> lane code
_KIND_OF = {"dts": _KIND_DTS, "lia": _KIND_LIA, None: _KIND_SCALAR}


def _nan_is_none(cell) -> Optional[float]:
    return None if cell != cell else float(cell)


def _negative_is_none(cell) -> Optional[int]:
    return None if cell < 0 else int(cell)


#: Every engine array, once.  ``__init__`` allocates each row's array
#: (``[n, max_subflows]`` when ``per_subflow``, else ``[n]``) filled with
#: ``fill``; ``_maybe_compact`` packs each of them; ``_load`` / ``_store``
#: sync the rows that name a :class:`model.SubflowPort` /
#: :class:`model.ConnState` attribute, reading a cell back through
#: ``read`` and storing ``None`` as ``fill``.  Rows without an attribute
#: are written by ``__init__`` only (path constants, controller
#: parameters, the slot mask).
_FIELDS = (
    # array, per_subflow, dtype, fill, scalar attribute, read
    ("cwnd_a", True, np.float64, 0.0, "cwnd", float),
    ("ssthresh_a", True, np.float64, 1e12, "ssthresh", float),
    ("srtt_a", True, np.float64, np.nan, "srtt", _nan_is_none),
    ("rttvar_a", True, np.float64, np.nan, "rttvar", _nan_is_none),
    ("base_state_a", True, np.float64, np.inf, "base_rtt", float),
    ("latest_a", True, np.float64, np.nan, "latest_rtt", _nan_is_none),
    ("rto_a", True, np.float64, 1.0, "rto", float),
    ("backoff_a", True, np.float64, 1.0, "_rto_backoff", float),
    ("burst_a", True, np.int64, 0, "burst", int),
    ("deadline_a", True, np.int64, -1, "deadline_tick", int),
    ("packets_sent_a", True, np.int64, 0, "packets_sent", int),
    ("retransmitted_a", True, np.int64, 0, "retransmitted", int),
    ("fast_rtx_a", True, np.int64, 0, "fast_retransmits", int),
    ("timeouts_a", True, np.int64, 0, "timeouts", int),
    ("loss_events_a", True, np.int64, 0, "loss_events", int),
    ("rounds_a", True, np.int64, 0, "rounds", int),
    ("active_a", True, np.bool_, False, "active", bool),
    ("rwnd_a", True, np.float64, 1.0, None, None),
    ("base_path_a", True, np.float64, 1.0, None, None),
    ("seg_time_a", True, np.float64, 0.0, None, None),
    ("loss_p_a", True, np.float64, 0.0, None, None),
    ("over_limit_a", True, np.int64, 0, None, None),
    ("slot_exists_a", True, np.bool_, False, None, None),
    ("assigned", False, np.int64, 0, "assigned", int),
    ("acked", False, np.int64, 0, "acked", int),
    ("completion", False, np.int64, -1, "completion_tick", _negative_is_none),
    ("total", False, np.int64, -1, None, None),
    ("kind", False, np.int8, _KIND_SCALAR, None, None),
    ("dts_c", False, np.float64, 1.0, None, None),
    ("dts_slope", False, np.float64, 10.0, None, None),
    ("dts_center", False, np.float64, 0.5, None, None),
    ("dts_ceiling", False, np.float64, 2.0, None, None),
)
_SYNCED_SUBFLOW = [f for f in _FIELDS if f[1] and f[4]]
_SYNCED_CONN = [f for f in _FIELDS if not f[1] and f[4]]

#: Compaction trigger: pack the arrays once at least this many rows, and
#: at least this fraction of them, have drained their supply.
_COMPACT_MIN_ROWS = 64
_COMPACT_FRACTION = 0.25

#: ``BatchEngine.counters`` keys.  The last three split ``fallback_rounds``
#: by cause (first match wins, in this order) and sum to it.
_COUNTERS = (
    "rounds", "cohort_ticks", "vector_rounds", "fallback_rounds", "compactions",
    "fallback_rounds.scalar_controller", "fallback_rounds.oversize_burst",
    "fallback_rounds.loss",
)


class BatchEngine:
    """Vectorized execution of a :class:`BatchScenario` (see module doc)."""

    def __init__(
        self,
        scenario: BatchScenario,
        *,
        record: bool = False,
        metrics: Optional["obs.MetricsRegistry"] = None,
    ):
        self.scenario = scenario
        self.rng = Pcg64(scenario.seed)
        self.record = record
        self.trajectory: List[tuple] = []
        self.clock = model._Clock()
        #: This engine's event counts, one increment site each; ``run()``
        #: adds what it counted to the registry as ``batch.<name>``.
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self.metrics = metrics if metrics is not None else obs.registry_or_new()

        n = scenario.n_connections
        self.n_slots = scenario.max_subflows
        for name, per_subflow, dtype, fill, _, _ in _FIELDS:
            shape = (n, self.n_slots) if per_subflow else n
            setattr(self, name, np.full(shape, fill, dtype=dtype))

        #: gid -> (ConnState, [SubflowPort]); scratch for ``_load``, dropped
        #: when the connection is archived.
        self._scalar: Dict[int, tuple] = {}
        self._row_of: Dict[int, int] = {gid: gid for gid in range(n)}
        #: row index -> original connection id (identity until compaction)
        self._gids: List[int] = list(range(n))
        self._archived: Dict[int, Dict[str, Any]] = {}
        self._archived_final: Dict[int, List[tuple]] = {}
        self.cohorts = TickCohorts()

        for gid, spec in enumerate(scenario.connections):
            conn, ports, vector = model.open_connection(
                gid, spec, self.clock, scenario.tick
            )
            self._scalar[gid] = (conn, ports)
            self.kind[gid] = _KIND_OF[vector]
            if vector == "dts":
                ctrl = ports[0].controller
                self.dts_c[gid] = ctrl.c
                self.dts_slope[gid] = ctrl.factor.slope
                self.dts_center[gid] = ctrl.factor.center
                self.dts_ceiling[gid] = ctrl.factor.ceiling
            if conn.total is not None:
                self.total[gid] = conn.total
            for k, port in enumerate(ports):
                self.slot_exists_a[gid, k] = True
                self.rwnd_a[gid, k] = port.rwnd
                self.base_path_a[gid, k] = port.path.base_rtt
                self.seg_time_a[gid, k] = port.seg_time
                self.loss_p_a[gid, k] = port.path.loss_rate
                self.over_limit_a[gid, k] = port.over_limit
                if port.active:
                    self.cohorts.push(port.deadline_tick, (gid, k))
            self._store(gid)

    # ------------------------------------------------- arrays <-> scalars

    def _load(self, gid: int) -> tuple:
        """Connection ``gid`` as ``(ConnState, [SubflowPort])``, refreshed
        from its array row — the one way any scalar code reads a connection."""
        conn, ports = self._scalar[gid]
        row = self._row_of[gid]
        for name, _, _, _, attr, read in _SYNCED_CONN:
            setattr(conn, attr, read(getattr(self, name)[row]))
        for name, _, _, _, attr, read in _SYNCED_SUBFLOW:
            cells = getattr(self, name)[row]
            for k, port in enumerate(ports):
                setattr(port, attr, read(cells[k]))
        return conn, ports

    def _store(self, gid: int) -> None:
        """Write connection ``gid``'s scalar objects back to its array row
        (whole connection: a round also moves the shared supply)."""
        conn, ports = self._scalar[gid]
        row = self._row_of[gid]
        for name, _, _, fill, attr, _ in _SYNCED_CONN:
            value = getattr(conn, attr)
            getattr(self, name)[row] = fill if value is None else value
        for name, _, _, fill, attr, _ in _SYNCED_SUBFLOW:
            cells = getattr(self, name)[row]
            for k, port in enumerate(ports):
                value = getattr(port, attr)
                cells[k] = fill if value is None else value

    # -------------------------------------------------------------- run

    def run(self) -> "BatchEngine":
        wall_start = time.perf_counter()
        counted = dict(self.counters)
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
            self.metrics.counter("batch.wall_time_s").inc(
                time.perf_counter() - wall_start
            )
            for name, before in counted.items():
                self.metrics.counter(f"batch.{name}").inc(
                    self.counters[name] - before
                )
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
        block = fill_random(self.rng, np.empty(total_draws))
        ends = np.cumsum(n_arr)
        starts = ends - n_arr
        min_u = np.minimum.reduceat(block, starts)
        lossy = (min_u < self.loss_p_a[rows, slots]) | (
            n_arr > self.over_limit_a[rows, slots]
        )
        scalar_ctrl = self.kind[rows] == _KIND_SCALAR
        oversize = n_arr > model.MAX_VECTOR_BURST
        vec_ok = ~(scalar_ctrl | oversize | lossy)
        for cause, mask in (
            ("scalar_controller", scalar_ctrl),
            ("oversize_burst", oversize & ~scalar_ctrl),
            ("loss", lossy & ~scalar_ctrl & ~oversize),
        ):
            self.counters[f"fallback_rounds.{cause}"] += int(mask.sum())
        n_vector = int(vec_ok.sum())
        self.counters["vector_rounds"] += n_vector
        self.counters["fallback_rounds"] += len(keys) - n_vector
        horizon = self.scenario.horizon_tick
        records: List[tuple] = []
        for k in range(self.n_slots):
            in_slot = slots == k
            if not in_slot.any():
                continue
            for kind_code in (_KIND_DTS, _KIND_LIA):
                grp = in_slot & vec_ok & (self.kind[rows] == kind_code)
                if grp.any():
                    self._vector_group(t, k, rows[grp], n_arr[grp], kind_code)
                    if self.record:
                        self._record_group(t, rows[grp], k, records)
            for i in np.flatnonzero(in_slot & ~vec_ok):
                gid = keys[i][0]
                conn, ports = self._load(gid)
                sub = ports[k]
                model.scalar_round(
                    sub, conn, block[starts[i]:ends[i]], t, self.scenario.tick
                )
                self._store(gid)
                if sub.active and sub.deadline_tick <= horizon:
                    self.cohorts.push(sub.deadline_tick, (gid, k))
                if self.record:
                    records.append(model.subflow_record(sub, conn, t))
        if self.record:
            records.sort(key=lambda r: (r[1], r[2]))
            self.trajectory.extend(records)

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
            # constant across the round's ACKs: Eq. 5 reads only its RTT sample
            psi = self.dts_c[rows] * dts_factor(
                np, bs, sample, self.dts_slope[rows], self.dts_center[rows],
                self.dts_ceiling[rows],
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
                    grown = cw + dts_increase(cw, reff[:, k], psi, tot)
                else:
                    best = cw_full[:, 0] / (reff[:, 0] * reff[:, 0])
                    for kk in range(1, n_slots):
                        best = np.maximum(
                            best, cw_full[:, kk] / (reff[:, kk] * reff[:, kk])
                        )
                    grown = cw + lia_increase(np, cw, best, tot)
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
            conn, ports = self._load(self.handles_row_gid(int(row)))
            records.append(model.subflow_record(ports[k], conn, t))

    # -------------------------------------------------------- compaction

    def _maybe_compact(self) -> None:
        """Archive fully-drained connections and pack live rows forward."""
        n_rows = self.cwnd_a.shape[0]
        if n_rows == 0:
            return
        drained = ~(self.active_a & self.slot_exists_a).any(axis=1)
        n_drained = int(drained.sum())
        if n_drained < max(_COMPACT_MIN_ROWS, int(n_rows * _COMPACT_FRACTION)):
            return
        keep = ~drained
        for row in np.flatnonzero(drained):
            gid = self.handles_row_gid(int(row))
            self._archive(gid)
        # pack every array; relative order of survivors is preserved
        for name, *_ in _FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        live_gids = [
            self.handles_row_gid(int(row)) for row in np.flatnonzero(keep)
        ]
        self._gids = live_gids
        self._row_of = {gid: i for i, gid in enumerate(live_gids)}
        self.counters["compactions"] += 1

    def _archive(self, gid: int) -> None:
        conn, ports = self._load(gid)
        self._archived[gid] = model.connection_snapshot(conn, ports, self.scenario)
        self._archived_final[gid] = [
            model.subflow_record(port, conn, -1) for port in ports
        ]
        del self._scalar[gid]

    # ------------------------------------------------------------ results

    def final_state(self) -> Dict[tuple, tuple]:
        """Per-subflow terminal state keyed by (gid, slot), for tests."""
        out: Dict[tuple, tuple] = {}
        for gid, recs in self._archived_final.items():
            for rec in recs:
                out[(gid, rec[2])] = rec
        for gid in self._row_of:
            conn, ports = self._load(gid)
            for port in ports:
                out[(gid, port.subflow_index)] = model.subflow_record(port, conn, -1)
        return out

    def result(self) -> Dict[str, Any]:
        snapshots: Dict[int, Dict[str, Any]] = dict(self._archived)
        for gid in self._row_of:
            conn, ports = self._load(gid)
            snapshots[gid] = model.connection_snapshot(conn, ports, self.scenario)
        ordered = [snapshots[gid] for gid in sorted(snapshots)]
        return model.assemble_result(ordered, self.scenario)

    def rng_state(self) -> Optional[dict]:
        return self.rng.state

