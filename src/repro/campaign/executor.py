"""Process-pool fan-out over RunSpecs with caching, retry, and telemetry.

Design points:

* **Determinism** — a worker rebuilds its whole run (topology, path
  selection, workload pairing, engine seeding) from the spec's fields
  alone, so ``--jobs 1`` and ``--jobs 4`` produce byte-identical
  metrics.  Wall-clock timing lives *outside* the ``metrics`` dict for
  the same reason.
* **Ordered collection** — ``run(specs)`` returns one
  :class:`RunOutcome` per spec, in spec order, regardless of completion
  order.
* **Fault tolerance** — a run that raises (or whose worker process
  dies) is retried once on a fresh submission; a second failure is
  reported as a failed outcome without aborting the campaign.  A worker
  that dies hard costs only the run that killed it: the other runs of
  the broken pool are re-executed without being charged an attempt.
* **Timeouts** — ``run_timeout`` bounds how long the collector waits
  for any single run's result.  A run that outlives it is charged an
  attempt and its pool's workers are killed (a hung run would otherwise
  hold a worker, and the interpreter, forever); the other uncollected
  runs of that pool move to a fresh one uncharged.  An in-process run
  cannot be stopped, so ``jobs=1`` takes no timeout.
* **Start-up** — the process pool is imported with the first pooled
  run and the telemetry writer only when the caller passes none, so an
  in-process run loads neither (DESIGN.md §8).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.campaign.spec import SCHEMA_VERSION, RunSpec, build_topology
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.campaign.cache import ResultCache
    from repro.campaign.telemetry import CampaignTelemetry

#: ``spec.params`` keys each engine accepts: the ones the CLI and the
#: campaign builders set.  Everything else the engines take (seed, dt,
#: duration, subflow count, the metrics registry, ...) is a RunSpec field
#: or the executor's to supply, so any other key is a typo or a knob that
#: no longer exists.  ``fluid-equilibrium`` takes the fluid keys for its
#: time-stepped fallback.
_FLUID_PARAM_KEYS = ("dtype",)
_SHARDED_PARAM_KEYS = ("shards", "dtype", "path_pool")
_PACKET_PARAM_KEYS = ("n_hosts", "loss_rate")

#: Resubmissions a failed run gets before it is reported failed.
_RETRIES = 1

#: What a runner returns: the deterministic ``metrics`` and the ``obs``
#: section (registry snapshot and anything else wall-clock dependent).
RunnerResult = Tuple[Dict[str, Any], Dict[str, Any]]


def execute_run(spec: RunSpec, shard_jobs: int = 1) -> Dict[str, Any]:
    """Execute one run described by ``spec``; the pool's worker function.

    Must stay a module-level function (pickled by ProcessPoolExecutor)
    and must derive *everything* from the spec so results are
    reproducible in any process.  Returns a JSON-serializable payload:
    ``metrics`` holds only deterministic quantities; ``wall_s`` (worker
    compute seconds) and ``obs`` (the run's full metrics-registry
    snapshot, which includes wall-clock counters) sit alongside so
    identical runs stay comparable.

    ``shard_jobs`` is deliberately *not* part of the spec (it changes
    how a sharded fluid run is scheduled, never what it computes); the
    CLI threads it in via ``functools.partial`` so cache hashes stay
    independent of the local core count.
    """
    runner, accepted = _RUNNERS[spec.engine]
    if spec.engine == "fluid" and "shards" in spec.params:
        runner = functools.partial(_run_sharded_fluid, shard_jobs=shard_jobs)
        accepted = _SHARDED_PARAM_KEYS
    unknown = sorted(set(spec.params) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"engine {spec.engine!r} does not accept params {unknown} "
            f"(accepted: {', '.join(accepted)})")
    t0 = time.perf_counter()
    metrics, snapshot = runner(spec, dict(spec.params))
    return {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": spec.content_hash(),
        "metrics": metrics,
        "wall_s": time.perf_counter() - t0,
        "obs": snapshot,
    }


def _permutation_network(spec: RunSpec):
    """The finalized fluid network ``spec`` names."""
    from repro.fluidsim import FluidNetwork

    return FluidNetwork.permutation(
        build_topology(spec.topology, link_delay=spec.link_delay),
        spec.algorithm, n_subflows=spec.n_subflows, seed=spec.seed)


def _step(net, spec: RunSpec, params: Dict[str, Any],
          registry: "obs.MetricsRegistry") -> Dict[str, Any]:
    """Step ``net`` for ``spec.duration``; the run's fluid metrics.

    ``registry`` is the run's own (not the ambient session's), so its
    snapshot is isolated and mergeable even for jobs=1 inline runs.
    """
    from repro.fluidsim import FluidSimulation, run_metrics

    sim = FluidSimulation(net, dt=spec.dt, seed=spec.seed, metrics=registry,
                          **params)
    return run_metrics(sim, sim.run(spec.duration))


def _run_fluid(spec: RunSpec, params: Dict[str, Any]) -> RunnerResult:
    """Time-step the spec's permutation network."""
    registry = obs.MetricsRegistry()
    metrics = _step(_permutation_network(spec), spec, params, registry)
    return metrics, registry.snapshot()


def _run_packet(spec: RunSpec, params: Dict[str, Any]) -> RunnerResult:
    """Execute an EC2-scenario spec on the batched packet engine.

    The ``metrics`` section comes straight from the engine's result
    payload; engine-private counters (vector/fallback round split,
    compactions, wall time) land in the ``obs`` section instead, as the
    ``batch.<name>`` series the engine publishes to its registry.
    """
    from repro.net.batch import BatchEngine, ec2_scenario

    registry = obs.MetricsRegistry()
    scenario = ec2_scenario(
        n_subflows=spec.n_subflows,
        algorithm=spec.algorithm,
        link_delay=spec.link_delay,
        duration=spec.duration,
        tick=spec.dt,
        seed=spec.seed,
        **params,
    )
    result = BatchEngine(scenario, metrics=registry).run().result()

    metrics = {
        "aggregate_goodput_bps": result["aggregate_goodput_bps"],
        "n_connections": result["n_connections"],
        **{f"total_{k}": v for k, v in result["totals"].items()},
        "connections": result["connections"],
    }
    return metrics, registry.snapshot()


def _run_equilibrium(spec: RunSpec, params: Dict[str, Any]) -> RunnerResult:
    """Solve a fluid spec's stationary state directly (no integration).

    Produces the same ``metrics`` keys as a time-stepped fluid run —
    energies come from the shared :class:`PowerEvaluator` arithmetic
    held at the equilibrium point for ``spec.duration`` — plus a
    ``solver`` sub-dict with convergence diagnostics.  Unsupported
    algorithms (wVegas, DCTCP, extended DTS) and non-converged solves
    fall back to the time-stepped engine; the ``solver`` entry records
    why.
    """
    from repro.energy.cpu import default_wired_host
    from repro.energy.switch import SwitchPowerModel
    from repro.errors import EquilibriumError
    from repro.fluidsim import (PowerEvaluator, fluid_metrics,
                                solve_fluid_equilibrium)

    registry = obs.MetricsRegistry()
    net = _permutation_network(spec)
    try:
        eq = solve_fluid_equilibrium(net, metrics=registry)
        fallback_reason = None if eq.converged else (
            f"solver stalled at residual {eq.residual:.3g} "
            f"after {eq.iterations} iterations")
    except EquilibriumError as exc:
        fallback_reason = str(exc)

    if fallback_reason is not None:
        metrics = _step(net, spec, params, registry)
        metrics["solver"] = {"fallback": True, "reason": fallback_reason}
    else:
        power = PowerEvaluator(net, default_wired_host(), SwitchPowerModel())
        x_bps = eq.x_pkts * net.packet_bits
        # Expected loss-event count under the engine's one-per-RTT
        # suppression (the renewal-process rate the solver balances).
        lam = eq.p_path * eq.x_pkts
        eff_rate = lam / (1.0 + lam * eq.rtt)
        metrics = fluid_metrics(
            aggregate_goodput_bps=eq.aggregate_goodput_bps,
            host_energy_j=power.host_power_now(x_bps, eq.rtt) * spec.duration,
            switch_energy_j=(power.switch_power_now(eq.link_utilization)
                             * spec.duration),
            delivered_bits=eq.aggregate_goodput_bps * spec.duration,
            loss_events=int(np.sum(eff_rate) * spec.duration),
            mean_rtt_s=float(np.mean(eq.rtt)),
            mean_utilization=float(np.mean(eq.link_utilization)),
            n_connections=len(net.connections),
            n_subflows=net.n_subflows,
            steps_taken=0,
        )
        metrics["solver"] = {
            "fallback": False,
            "converged": True,
            "iterations": eq.iterations,
            "residual": eq.residual,
        }
    return metrics, registry.snapshot()


def _run_sharded_fluid(spec: RunSpec, params: Dict[str, Any],
                       shard_jobs: int) -> RunnerResult:
    """Step ``params['shards']`` independent fabric replicas and merge
    them (see :mod:`repro.fluidsim.sharding`).

    Shard fan-out parallelism comes from ``shard_jobs`` (an execution
    detail, not a spec field); the metrics are byte-identical at any
    ``shard_jobs`` value.
    """
    from repro.fluidsim import run_sharded

    result = run_sharded(
        spec.topology, n_shards=int(params.pop("shards")), jobs=shard_jobs,
        algorithm=spec.algorithm, n_subflows=spec.n_subflows,
        duration=spec.duration, dt=spec.dt, seed=spec.seed,
        link_delay=spec.link_delay, **params)
    return result.metrics(), {**result.obs,
                              "shard_wall_s": list(result.shard_wall_s)}


#: engine -> (runner(spec, params) -> RunnerResult, the ``spec.params``
#: keys it accepts).
_RUNNERS = {
    "fluid": (_run_fluid, _FLUID_PARAM_KEYS),
    "fluid-equilibrium": (_run_equilibrium, _FLUID_PARAM_KEYS),
    "packet-batch": (_run_packet, _PACKET_PARAM_KEYS),
}


def _traced_run(run_fn: Callable[[RunSpec], Dict[str, Any]],
                traceparent: Optional[str], spec: RunSpec) -> Dict[str, Any]:
    """Wrap one run in its own tracer, joined to the driver's trace.

    Module-level (pickled by the pool via ``functools.partial``): each
    worker run gets a fresh :class:`~repro.obs.Tracer` whose root
    ``campaign.run`` span parents under the driver's campaign span, and
    the resulting shard rides back in the payload under ``"trace"``.
    """
    tracer = obs.Tracer(parent=traceparent)
    with tracer.span("campaign.run", spec_hash=spec.content_hash(),
                     topology=spec.topology, algorithm=spec.algorithm,
                     n_subflows=spec.n_subflows, seed=spec.seed):
        payload = run_fn(spec)
    payload["trace"] = tracer.shard_dict(f"worker-{os.getpid()}")
    return payload


@dataclass
class RunOutcome:
    """What happened to one spec in a campaign."""

    spec: RunSpec
    payload: Optional[Dict[str, Any]]
    cached: bool = False
    wall_s: float = 0.0
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.payload is not None

    @property
    def metrics(self) -> Dict[str, Any]:
        """The deterministic result metrics (empty dict on failure)."""
        if self.payload is None:
            return {}
        return self.payload.get("metrics", {})


class CampaignExecutor:
    """Runs specs through the cache and (optionally) a process pool."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[CampaignTelemetry] = None,
        run_timeout: Optional[float] = None,
        run_fn: Callable[[RunSpec], Dict[str, Any]] = execute_run,
        trace_parent: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs == 1 and run_timeout is not None:
            raise ConfigurationError(
                "run_timeout needs jobs >= 2: an in-process run cannot be stopped")
        self.jobs = jobs
        self.cache = cache
        self.telemetry = telemetry
        self.run_timeout = run_timeout
        self.run_fn = run_fn
        #: When set (a ``traceparent`` string), every executed run is
        #: wrapped by :func:`_traced_run` and its payload carries a
        #: trace shard under ``"trace"``.
        self.trace_parent = trace_parent

    # ------------------------------------------------------------------- run

    def run(self, specs: Sequence[RunSpec],
            campaign_name: str = "campaign") -> List[RunOutcome]:
        """Execute every spec; returns outcomes ordered like ``specs``."""
        tel = self.telemetry
        if tel is None:
            from repro.campaign.telemetry import CampaignTelemetry

            tel = CampaignTelemetry()
        parsed = obs.parse_traceparent(self.trace_parent)
        tel.campaign_started(campaign_name, n_runs=len(specs), jobs=self.jobs,
                             trace_id=parsed[0] if parsed else None)

        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        pending: List[int] = []
        for i, spec in enumerate(specs):
            payload = self.cache.get(spec) if self.cache is not None else None
            if payload is not None:
                outcomes[i] = RunOutcome(spec, payload, cached=True, attempts=0)
            else:
                pending.append(i)

        def emit_progress() -> None:
            """One streaming progress event from the outcomes collected
            so far — what ``obs serve`` tails live."""
            done = sum(1 for o in outcomes if o is not None)
            failed = sum(1 for o in outcomes
                         if o is not None and not o.ok)
            hits = sum(1 for o in outcomes if o is not None and o.cached)
            tel.progress(done, len(specs), failed=failed, cache_hits=hits)

        for i in pending:
            tel.run_queued(specs[i])
        emit_progress()  # the cache-scan baseline (hits count as done)

        if pending:
            if self.jobs <= 1:
                for i in pending:
                    tel.run_started(specs[i])
                    outcomes[i] = self._run_inline(specs[i])
                    emit_progress()
            else:
                self._run_pooled(specs, pending, outcomes, tel, emit_progress)

        for i, outcome in enumerate(outcomes):
            assert outcome is not None
            if outcome.cached:
                tel.run_completed(outcome.spec, outcome.payload, outcome.wall_s,
                                  cached=True, attempts=outcome.attempts)
            elif outcome.ok:
                if self.cache is not None:
                    # The shard is run-local noise (span ids, pids): keep
                    # the content-addressed cache deterministic by
                    # stripping it before the payload is persisted.
                    cacheable = {k: v for k, v in outcome.payload.items()
                                 if k != "trace"}
                    path = self.cache.put(outcome.spec, cacheable)
                    self._write_manifest(campaign_name, outcome, path)
                tel.run_completed(outcome.spec, outcome.payload, outcome.wall_s,
                                  cached=False, attempts=outcome.attempts)
            else:
                tel.run_failed(outcome.spec, outcome.error or "unknown error",
                               outcome.wall_s, outcome.attempts)
                obs.record_event(
                    "campaign_run_failed", campaign=campaign_name,
                    spec_hash=outcome.spec.content_hash(),
                    topology=outcome.spec.topology, seed=outcome.spec.seed,
                    error=outcome.error or "unknown error",
                    attempts=outcome.attempts)

        if self.cache is not None:
            for name, value in self.cache.stats.as_dict().items():
                tel.counters[f"cache_{name}"] = value
        tel.campaign_finished(campaign_name)
        return outcomes  # type: ignore[return-value]

    @staticmethod
    def _write_manifest(campaign_name: str, outcome: RunOutcome, path) -> None:
        """Write a provenance manifest next to the cached result.

        Best-effort: a manifest failure must never fail the campaign.
        """
        try:
            manifest = obs.RunManifest.capture(
                label=f"{campaign_name}:{outcome.spec.topology}",
                spec_hash=outcome.spec.content_hash(),
                seed=outcome.spec.seed,
                metrics=outcome.payload.get("obs", {}),
                annotations={
                    "algorithm": outcome.spec.algorithm,
                    "n_subflows": outcome.spec.n_subflows,
                    "duration": outcome.spec.duration,
                    "wall_s": outcome.payload.get("wall_s"),
                },
            )
            manifest.write(path.with_name(path.stem + ".manifest.json"))
        except Exception:  # noqa: BLE001 - provenance is advisory
            pass

    # ----------------------------------------------------------- strategies

    def _effective_run_fn(self) -> Callable[[RunSpec], Dict[str, Any]]:
        """``run_fn``, trace-wrapped when this executor traces.

        ``functools.partial`` over module-level functions stays
        picklable, so the wrapped form crosses the process pool.
        """
        if self.trace_parent is None:
            return self.run_fn
        return functools.partial(_traced_run, self.run_fn, self.trace_parent)

    def _run_inline(self, spec: RunSpec) -> RunOutcome:
        """Execute in-process, retrying on any exception."""
        attempts = 0
        run_fn = self._effective_run_fn()
        t0 = time.perf_counter()
        while True:
            attempts += 1
            try:
                payload = run_fn(spec)
                return RunOutcome(spec, payload, wall_s=time.perf_counter() - t0,
                                  attempts=attempts)
            except Exception as exc:  # noqa: BLE001 - a run may fail arbitrarily
                if attempts > _RETRIES:
                    return RunOutcome(spec, None, wall_s=time.perf_counter() - t0,
                                      error=f"{type(exc).__name__}: {exc}",
                                      attempts=attempts)

    def _run_pooled(self, specs: Sequence[RunSpec], pending: List[int],
                    outcomes: List[Optional[RunOutcome]],
                    tel: CampaignTelemetry,
                    emit_progress: Callable[[], None]) -> None:
        """Fan out over a process pool, collecting results in spec order.

        Each pending index gets up to ``1 + _RETRIES`` submissions of its
        own.  The first goes to the shared pool; every later one (a
        retry, or a re-run after the shared pool broke) to a
        single-worker pool that starts at once and ends with it, so its
        ``run_timeout`` counts only its own run and not the shared
        pool's queue (while it runs the campaign has ``jobs + 1``
        workers).  A worker that dies hard breaks the pool for every
        future in it, and which run killed it cannot be told from here,
        so a break of the shared pool charges nobody; a break of a run's
        own pool can only be that run's doing and is charged to it.  A
        run that times out is charged; if it ran in the shared pool, that
        pool is ended and its unfinished runs are resubmitted to a fresh
        one.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        run_fn = self._effective_run_fn()
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures = {}
            for i in pending:
                tel.run_started(specs[i])
                futures[i] = pool.submit(run_fn, specs[i])
            starts = {i: time.perf_counter() for i in pending}
            for n, i in enumerate(pending):
                attempts = 1
                fut = futures[i]
                while True:
                    in_shared = fut is not None
                    if not in_shared:
                        own = ProcessPoolExecutor(max_workers=1)
                        fut = own.submit(run_fn, specs[i])
                    failure: Optional[Exception] = None
                    try:
                        payload = fut.result(timeout=self.run_timeout)
                    except Exception as exc:  # noqa: BLE001
                        failure = exc
                    finally:
                        if not in_shared:
                            _end_pool(own)
                    if failure is None:
                        outcomes[i] = RunOutcome(
                            spec=specs[i], payload=payload,
                            wall_s=time.perf_counter() - starts[i],
                            attempts=attempts)
                        emit_progress()
                        break
                    if isinstance(failure, BrokenProcessPool) and in_shared:
                        fut = None
                        continue
                    if isinstance(failure, FuturesTimeoutError):
                        error = f"timed out after {self.run_timeout}s"
                        if in_shared:
                            moved = [j for j in pending[n + 1:]
                                     if not futures[j].done()]
                            _end_pool(pool)
                            pool = ProcessPoolExecutor(
                                max_workers=min(self.jobs, len(moved) + 1))
                            for j in moved:
                                futures[j] = pool.submit(run_fn, specs[j])
                    else:
                        error = f"{type(failure).__name__}: {failure}"
                    if attempts > _RETRIES:
                        outcomes[i] = RunOutcome(
                            spec=specs[i], payload=None,
                            wall_s=time.perf_counter() - starts[i],
                            error=error, attempts=attempts)
                        emit_progress()
                        break
                    attempts += 1
                    fut = None
        finally:
            _end_pool(pool)


def _end_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down with its workers killed and reaped, so none
    outlives the campaign, whatever it was running.

    ``ProcessPoolExecutor`` has no public handle on a running call before
    Python 3.14, hence ``_processes``; killing a worker breaks the pool,
    which fails the calls it still held with ``BrokenProcessPool``.
    """
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)
