"""Built-in benchmark cases: engine, transport, campaign, and obs hot paths.

Each measurement body is a plain function (importable on its own, e.g. to
profile it by hand), and each registered case asserts a coarse sanity
bound on its result, so a silently broken workload cannot masquerade as a
speedup.  A bound that fails fails its case, by name; the runner goes on
to the next one.
"""

from __future__ import annotations

import gc
import json
from math import comb
from time import process_time

import repro.obs as obs
from repro.bench.results import median
from repro.bench.runner import BenchContext, register
from repro.obs.tracing import MONOTONIC_CLOCK

__all__ = [
    "array_cold_run",
    "campaign_cached_replay",
    "campaign_cold_sweep",
    "campaign_specs",
    "counter_inc_cost",
    "des_cold_import",
    "fluid_cold_import",
    "fluid_equilibrium_solve_vs_step",
    "fluid_fattree_step_batch",
    "fluid_k24_sharded",
    "fluid_largescale_network",
    "fluid_largescale_step_batch",
    "fluid_step_kernel_setup",
    "fluid_step_kernel_steps",
    "histogram_observe_cost",
    "null_span_cost",
    "overhead_verdict",
    "packet_delack_churn",
    "packet_pooled_lossy",
    "packet_retransmit",
    "packet_transfer",
    "paired_ratios",
    "recorder_overhead_ratios",
    "spec_hash_cost",
    "trace_overhead_ratios",
    "traced_packet_transfer",
    "transport_cold_import",
    "transport_connection_churn",
    "transport_loopback_transfer",
]


# ------------------------------------------------------------------- engines

def packet_transfer(megabytes: int = 4):
    """One TCP transfer (4 MB unless told) across a 2-hop packet network;
    returns the events processed."""
    from repro.net import Network
    from repro.net.queues import DropTailQueue
    from repro.units import mb, mbps, ms

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    net.link(s, b, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    conn = net.tcp_connection(net.route([a, s, b]), total_bytes=mb(megabytes))
    conn.start()
    net.run_until_complete([conn], timeout=60)
    return net.sim.events_processed


def packet_retransmit():
    """The same transfer through a 10-packet bottleneck queue, forcing
    drops so loss recovery / retransmission paths dominate."""
    from repro.net import Network
    from repro.net.queues import DropTailQueue
    from repro.units import mb, mbps, ms

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    net.link(s, b, rate_bps=mbps(50), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=10))
    conn = net.tcp_connection(net.route([a, s, b]), total_bytes=mb(2))
    conn.start()
    net.run_until_complete([conn], timeout=120)
    return net.sim.events_processed


def packet_pooled_lossy():
    """2 MB transfer over a 1%-random-loss path: every loss draw comes
    from the batched RNG facade and every dropped/delivered packet cycles
    through the pool. Returns (events, pool reuses)."""
    from repro.net import Network
    from repro.net.queues import DropTailQueue
    from repro.units import mb, mbps, ms

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    net.link(s, b, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100),
             loss_rate=0.01)
    conn = net.tcp_connection(net.route([a, s, b]), total_bytes=mb(2))
    conn.start()
    net.run_until_complete([conn], timeout=240)
    return net.sim.events_processed, net.sim.pool.reuses


def packet_delack_churn():
    """4 MB transfer with delayed ACKs: per-segment delack timers are
    armed and cancelled constantly, exercising the coalesced-RTO path,
    lazy-cancel stubs, and heap compaction. Returns (events, compactions)."""
    from repro.net import Network
    from repro.net.queues import DropTailQueue
    from repro.units import mb, mbps, ms

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    s = net.add_switch("s")
    net.link(a, s, rate_bps=mbps(100), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=100))
    net.link(s, b, rate_bps=mbps(50), delay=ms(5),
             queue_factory=lambda: DropTailQueue(limit_packets=20))
    conn = net.tcp_connection(net.route([a, s, b]), total_bytes=mb(4),
                              delayed_acks=True)
    conn.start()
    net.run_until_complete([conn], timeout=240)
    return net.sim.events_processed, net.sim.heap_compactions


def fluid_fattree_step_batch():
    """1000 fluid-model steps over a k=8 fat-tree permutation workload
    (~500 subflows, 768 links); returns the subflow count."""
    from repro.fluidsim import FluidNetwork, FluidSimulation
    from repro.topology import FatTree
    from repro.units import ms

    net = FluidNetwork.permutation(FatTree(8, link_delay=ms(1)), "lia",
                                   n_subflows=4, seed=1)
    sim = FluidSimulation(net, dt=0.004, seed=1)
    sim.run(4.0)
    return net.n_subflows


@register("engine.packet_transfer", suites=("tier1", "engine"),
          description="4 MB TCP transfer on the packet event simulator")
def _engine_packet_transfer(ctx: BenchContext):
    assert packet_transfer() > 10_000


@register("engine.packet_retransmit", suites=("tier1", "engine"),
          description="lossy-bottleneck transfer exercising retransmission")
def _engine_packet_retransmit(ctx: BenchContext):
    assert packet_retransmit() > 10_000


@register("engine.packet_pooled_lossy", suites=("tier1", "engine"),
          description="random-loss transfer exercising pool recycling + batched RNG")
def _engine_packet_pooled_lossy(ctx: BenchContext):
    events, reuses = packet_pooled_lossy()
    assert events > 10_000
    assert reuses > 1_000  # the pool must actually be recycling


@register("engine.packet_delack_churn", suites=("tier1", "engine"),
          description="delayed-ACK transfer exercising timer churn + compaction")
def _engine_packet_delack_churn(ctx: BenchContext):
    events, _compactions = packet_delack_churn()
    assert events > 10_000


@register("engine.fluid_fattree", suites=("tier1", "engine"),
          description="1000 fluid steps over a k=8 fat-tree (~500 subflows)")
def _engine_fluid_fattree(ctx: BenchContext):
    # Same-pod pairs have fewer than 4 ECMP paths, so slightly under 4x128.
    assert 450 <= fluid_fattree_step_batch() <= 512


def fluid_largescale_network(k: int = 12):
    """Build (but do not run) the large-topology workload: a fat-tree
    permutation with 8 subflows per connection (k=12: ~3300 subflows,
    2592 links, routing density ~0.2%) — the regime the sparse routing
    kernel exists for."""
    from repro.fluidsim import FluidNetwork
    from repro.topology import FatTree
    from repro.units import ms

    return FluidNetwork.permutation(FatTree(k, link_delay=ms(1)), "lia",
                                    n_subflows=8, seed=1)


def fluid_largescale_step_batch(net):
    """500 fluid-model steps over a prebuilt large-scale network;
    returns the subflow count."""
    from repro.fluidsim import FluidSimulation

    sim = FluidSimulation(net, dt=0.004, seed=1)
    sim.run(2.0)
    return net.n_subflows


def fluid_step_kernel_setup():
    """Build and warm a small fluid sim (k=4 fat-tree) so a subsequent
    run measures the step kernel alone, not first-run buffer setup."""
    from repro.fluidsim import FluidNetwork, FluidSimulation
    from repro.topology import FatTree
    from repro.units import ms

    net = FluidNetwork.permutation(FatTree(4, link_delay=ms(1)), "lia",
                                   n_subflows=4, seed=1)
    sim = FluidSimulation(net, dt=0.004, seed=1)
    sim.run(sim.dt)  # warm buffers and cohort views
    return sim


def fluid_step_kernel_steps(sim, n_calls: int = 200):
    """``n_calls`` single-step ``run()`` calls on a warmed sim: isolates
    per-step work plus per-run overhead (allocation, view rebuilds) with
    no integration horizon to hide them. Returns steps taken."""
    for _ in range(n_calls):
        sim.run(sim.dt)
    return n_calls


@register("engine.fluid_largescale", suites=("tier1", "engine"),
          description="500 fluid steps over a k=12 fat-tree (~3300 subflows, "
                      "sparse kernel)",
          setup=lambda ctx: setattr(ctx, "fluid_net",
                                    fluid_largescale_network()))
def _engine_fluid_largescale(ctx: BenchContext):
    # 432 hosts x 8 subflows, minus same-pod pairs with fewer ECMP paths.
    assert 3000 <= fluid_largescale_step_batch(ctx.fluid_net) <= 3456


def fluid_build_footprint(k: int):
    """One fat-tree build under ``tracemalloc``: (retained, peak) bytes —
    exact counts that repeat, where the timed passes' RSS does not."""
    import tracemalloc

    fluid_largescale_network(4)  # lazy imports and caches are not the build's
    gc.collect()
    tracemalloc.start()
    try:
        net = fluid_largescale_network(k)  # bound: retained is measured with it alive
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def fluid_solve_peak(k: int) -> int:
    """Peak bytes ``tracemalloc`` sees while the equilibrium solver runs on
    the k-ary fat-tree of :func:`fluid_largescale_network`, its build
    excluded: an exact count of the solver's workspace and temporaries."""
    import tracemalloc

    from repro.fluidsim import solve_fluid_equilibrium

    solve_fluid_equilibrium(fluid_largescale_network(4))  # lazy imports
    net = fluid_largescale_network(k)
    gc.collect()
    tracemalloc.start()
    try:
        solve_fluid_equilibrium(net)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k24_footprints(ctx: BenchContext) -> None:
    setattr(ctx, "k24_footprint", fluid_build_footprint(24))
    setattr(ctx, "k24_solve_peak", fluid_solve_peak(24))


@register("engine.fluid_k24_build", suites=("tier1", "engine"),
          description="fabric build alone at k=24: topology + 3456 "
                      "add_connection (8 subflows) + finalize, no solve, no "
                      "stepping (+ tracemalloc KiB of the build and of a "
                      "solve, from untimed passes)",
          setup=_k24_footprints)
def _engine_fluid_k24_build(ctx: BenchContext):
    net = fluid_largescale_network(24)
    assert len(net.connections) == 3456
    # 8 subflows each, except the few same-edge pairs (one path).
    assert 27_000 <= net.n_subflows <= 8 * 3456
    retained_kib, peak_kib = (size // 1024 for size in ctx.k24_footprint)
    # 4,937 / 6,569 measured; 5,489 / 7,196 with a buffer column, an
    # is_swsw mask and int64 egress ports per network and int64 index
    # columns; 6,548 / 8,254 with a ones vector per matrix and int64
    # fat-tree columns; an object per connection: 8,661 / 11,071; two
    # routing matrices sorted globally: 10,566 / 17,080.
    assert retained_kib < 5_050 and peak_kib < 6_700, (retained_kib, peak_kib)
    # 4,187 measured (the fabric's 1/capacity made on this first read,
    # int8 signs, a broadcast halving factor); 4,591 with a float64 sign
    # vector, a 1/capacity and a 0.5-filled factor per cohort per
    # iteration; 5,776 when every iteration allocated its temporaries.
    solve_peak_kib = ctx.k24_solve_peak // 1024
    assert solve_peak_kib < 4_300, solve_peak_kib
    registry = obs.registry_or_new()
    registry.gauge("bench.fluid_k24_build.retained_kib").set(retained_kib)
    registry.gauge("bench.fluid_k24_build.peak_kib").set(peak_kib)
    registry.gauge("bench.fluid_k24_build.solve_peak_kib").set(solve_peak_kib)


def _cold_import(statement: str, absent: "tuple[str, ...]"):
    """``statement`` in a fresh interpreter on this source tree.  The
    child asserts that none of the modules in ``absent`` got loaded
    (DESIGN.md §8) and reports (modules loaded, ``repro`` modules loaded,
    peak resident set in KiB).  The first count depends on the host's
    site-packages; the second only on this tree."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    # The peak is read from VmHWM where /proc has it: ru_maxrss of an
    # exec'd child starts at the parent's own peak (this runner's), not 0.
    code = (
        "import json, re, resource, sys\n"
        f"{statement}\n"
        f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
        "assert not loaded, f'{loaded} got imported'\n"
        "try:\n"
        "    peak = int(re.search(r'VmHWM:\\s+(\\d+) kB',\n"
        "                         open('/proc/self/status').read()).group(1))\n"
        "except (OSError, AttributeError):\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "own = sum(m == 'repro' or m.startswith('repro.') for m in sys.modules)\n"
        "print(json.dumps([len(sys.modules), own, peak]))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


#: The fluid tier's network, stepping engine and solver, named through
#: the package surface (each name loads its own module).
_FLUID_ENGINE = ("from repro.fluidsim import FluidNetwork, FluidSimulation, "
                 "solve_fluid_equilibrium")


def fluid_cold_import():
    """The fluid network, stepping engine and solver imported in a fresh
    interpreter — what every campaign worker, shard worker and ``python -m
    repro fig10..16`` pays before its first step; neither ``scipy`` nor
    ``scipy.sparse`` may get loaded.  Returns :func:`_cold_import`'s
    triple."""
    return _cold_import(_FLUID_ENGINE, ("scipy", "scipy.sparse"))


@register("engine.fluid_cold_import", suites=("tier1", "engine"),
          description="fresh interpreter: start-up + FluidNetwork, "
                      "FluidSimulation and solve_fluid_equilibrium from "
                      "repro.fluidsim (no scipy.sparse; module count and "
                      "peak RSS recorded)")
def _engine_fluid_cold_import(ctx: BenchContext):
    modules, own, maxrss_kib = fluid_cold_import()
    # numpy + the fluid tier is ~250 modules; scipy.sparse alone adds ~350.
    assert modules < 400, f"{modules} modules after {_FLUID_ENGINE}"
    registry = obs.registry_or_new()
    registry.gauge("bench.fluid_cold_import.modules").set(modules)
    registry.gauge("bench.fluid_cold_import.repro_modules").set(own)
    registry.gauge("bench.fluid_cold_import.maxrss_kib").set(maxrss_kib)


def des_cold_import():
    """The two packet-figure modules the e2e benchmark runs, imported in a
    fresh interpreter — what every ``python -m repro fig01..09 / fig17``
    pays before its first event; numpy may not get loaded.  Returns
    :func:`_cold_import`'s triple."""
    return _cold_import(
        "from repro.experiments import fig06_shared_bottleneck, fig17_wireless",
        ("numpy",))


@register("engine.des_cold_import", suites=("tier1", "engine"),
          description="fresh interpreter: start-up + the fig06 / fig17 "
                      "experiment modules (no numpy; module count and peak "
                      "RSS recorded)")
def _engine_des_cold_import(ctx: BenchContext):
    modules, own, maxrss_kib = des_cold_import()
    # The scalar DES and its stdlib imports are ~180 modules; numpy adds ~100.
    assert modules < 240, f"{modules} modules after importing fig06 + fig17"
    # 40 measured: no controller is loaded before a figure constructs one,
    # nor the recorders, the manifest, the wire format or the radio and
    # switch models; 61 when each package loaded all of its submodules.
    assert own <= 40, f"{own} repro modules after importing fig06 + fig17"
    registry = obs.registry_or_new()
    registry.gauge("bench.des_cold_import.modules").set(modules)
    registry.gauge("bench.des_cold_import.repro_modules").set(own)
    registry.gauge("bench.des_cold_import.maxrss_kib").set(maxrss_kib)


def array_cold_run():
    """A small stepped fluid run and a small packet-batch run, each
    through ``execute_run`` (so its spec is hashed), in a fresh interpreter
    — what a campaign worker or an in-process ``sweep`` pays; neither
    ``numpy.random`` nor OpenSSL's ``_hashlib`` may get loaded, nor the
    process pool an in-process run never starts.  Returns
    :func:`_cold_import`'s triple."""
    return _cold_import(
        "from repro.campaign import RunSpec, execute_run\n"
        "execute_run(RunSpec(engine='fluid', topology='bcube', n_subflows=2,\n"
        "                    duration=0.2, dt=0.01))\n"
        "execute_run(RunSpec(engine='packet-batch', topology='ec2',\n"
        "                    algorithm='dts', n_subflows=2, duration=0.2,\n"
        "                    dt=0.002, params={'n_hosts': 8, 'loss_rate': 1e-2}))",
        ("numpy.random", "_hashlib", "concurrent.futures", "multiprocessing"))


@register("engine.array_cold_run", suites=("tier1", "engine"),
          description="fresh interpreter: a small fluid run + a small batch "
                      "run (no numpy.random, no OpenSSL, no process pool; "
                      "module count and peak RSS recorded)")
def _engine_array_cold_run(ctx: BenchContext):
    modules, own, maxrss_kib = array_cold_run()
    # Both engines and the campaign layer are ~270 modules; the process
    # pool adds ~35, numpy.random and hashlib with OpenSSL ~20 more.
    assert modules < 330, f"{modules} modules after a fluid + a batch run"
    # 46 measured: the spec, the runner and the two engines, with one
    # fabric's module; 52 when the campaign and fluidsim packages loaded
    # every submodule (cache, telemetry, solver, shard pool) and every
    # fabric was imported to build one.
    assert own <= 46, f"{own} repro modules after a fluid + a batch run"
    registry = obs.registry_or_new()
    registry.gauge("bench.array_cold_run.modules").set(modules)
    registry.gauge("bench.array_cold_run.repro_modules").set(own)
    registry.gauge("bench.array_cold_run.maxrss_kib").set(maxrss_kib)


@register("engine.fluid_step_kernel", suites=("tier1", "engine"),
          description="200 single-step fluid run() calls on a warmed k=4 "
                      "fat-tree sim (allocation overhead micro)",
          setup=lambda ctx: setattr(ctx, "fluid_sim",
                                    fluid_step_kernel_setup()))
def _engine_fluid_step_kernel(ctx: BenchContext):
    assert fluid_step_kernel_steps(ctx.fluid_sim) == 200


def fluid_equilibrium_solve_vs_step(horizon: float = 16.0):
    """Solve the k=12 fat-tree workload's stationary state directly AND
    integrate a twin network to it; returns (solve_s, step_s, relative
    aggregate-goodput disagreement).

    The twin build keeps the comparison honest: the solver must not
    benefit from state the integration run would have had to compute.
    """
    import time as _time

    from repro.fluidsim import FluidSimulation, solve_fluid_equilibrium

    net_solve = fluid_largescale_network()
    net_step = fluid_largescale_network()
    t0 = _time.perf_counter()
    eq = solve_fluid_equilibrium(net_solve)
    solve_s = _time.perf_counter() - t0
    assert eq.converged, f"solver stalled at residual {eq.residual:.3g}"
    sim = FluidSimulation(net_step, dt=0.004, seed=1)
    t0 = _time.perf_counter()
    res = sim.run(horizon)
    step_s = _time.perf_counter() - t0
    rel = (abs(eq.aggregate_goodput_bps - res.aggregate_goodput_bps)
           / res.aggregate_goodput_bps)
    return solve_s, step_s, rel


@register("engine.fluid_equilibrium", suites=("tier1", "engine"),
          description="k=12 fat-tree: direct equilibrium solve vs 16 s "
                      "time-stepped integration (agreement + >=20x gate)")
def _engine_fluid_equilibrium(ctx: BenchContext):
    solve_s, step_s, rel = fluid_equilibrium_solve_vs_step()
    # The integration mean still carries its startup transient at this
    # horizon; the measured gap is ~5%, gated at 10%.
    assert rel < 0.10, (
        f"solver disagrees with the time-stepped equilibrium by {rel:.1%}")
    # Local headroom is ~45x; 20x keeps the gate robust on noisy CI
    # machine classes while still catching a de-optimised solver.
    assert step_s >= 20.0 * solve_s, (
        f"direct solve only {step_s / solve_s:.1f}x faster than "
        f"integration (solve {solve_s * 1e3:.1f}ms, step {step_s:.2f}s)")


def fluid_k24_sharded(n_shards: int = 4, jobs: int = 4):
    """Four fat-tree k=24 replica shards (~41k float32 subflows) run
    serially and through a process pool; asserts the merged results are
    identical and returns (serial_s, pooled_s, merged result)."""
    import dataclasses
    import time as _time

    from repro.fluidsim.sharding import run_sharded

    kwargs = dict(algorithm="lia", n_subflows=3, duration=0.4, dt=0.004,
                  seed=1, dtype="float32", path_pool=8)
    t0 = _time.perf_counter()
    serial = run_sharded("fattree24", n_shards=n_shards, jobs=1, **kwargs)
    serial_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    pooled = run_sharded("fattree24", n_shards=n_shards, jobs=jobs, **kwargs)
    pooled_s = _time.perf_counter() - t0
    assert (dataclasses.replace(serial, shard_wall_s=())
            == dataclasses.replace(pooled, shard_wall_s=())), \
        "pooled sharded run diverged from the serial one"
    return serial_s, pooled_s, serial


@register("engine.fluid_k24_sharded", suites=("tier1", "engine"),
          description="4 fat-tree k=24 shards (~41k float32 subflows): "
                      "serial-vs-pooled equivalence + >=2x pooled at 4+ CPUs")
def _engine_fluid_k24_sharded(ctx: BenchContext):
    import os

    serial_s, pooled_s, merged = fluid_k24_sharded()
    assert merged.n_shards == 4
    assert merged.n_subflows >= 30_000
    assert merged.aggregate_goodput_bps > 0
    registry = obs.registry_or_new()
    registry.gauge("bench.fluid_k24_sharded.serial_s").set(serial_s)
    registry.gauge("bench.fluid_k24_sharded.pooled_s").set(pooled_s)
    # Below 4 CPUs the equivalence assertion above is the whole gate: a
    # shard builds and steps in ~0.15 s, so on 1-2 cores pool start-up
    # and a busy neighbour decide the ratio (a >=1.2x gate at 2 CPUs
    # failed about one run in ten on both sides of ISSUE 14).
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert serial_s >= 2.0 * pooled_s, (
            f"sharding only {serial_s / pooled_s:.2f}x faster pooled on "
            f"{cpus} CPUs (serial {serial_s:.2f}s, pooled {pooled_s:.2f}s)")


def packet_megascale(n_hosts: int = 1000, duration: float = 0.1):
    """1000-host EC2-style run (Fig. 10 shape) on the batched
    struct-of-arrays engine AND the scalar oracle: asserts byte-identical
    result payloads, returns (batch_s, oracle_s, batch_counters).

    The queue is sized above the receive window so drop-tail overflow is
    not the steady state; lossy rounds (the scalar-fallback path) come
    from the iid segment loss alone.
    """
    import time as _time

    from repro.net.batch import BatchEngine, ec2_scenario
    from repro.net.batch.oracle import OracleEngine

    scenario = ec2_scenario(n_hosts=n_hosts, n_subflows=2, algorithm="dts",
                            duration=duration, queue_segments=64, seed=3)
    t0 = _time.perf_counter()
    batch = BatchEngine(scenario).run()
    batch_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    oracle = OracleEngine(scenario).run()
    oracle_s = _time.perf_counter() - t0
    a = json.dumps(batch.result(), sort_keys=True)
    b = json.dumps(oracle.result(), sort_keys=True)
    assert a == b, "batch result diverged from the scalar oracle"
    counters = dict(batch.counters)
    # This is by far the biggest allocator in the suite (thousands of
    # ports + megabyte arrays); drop and collect so the ratio-gated obs
    # cases later in the tier-1 run measure on a quiet heap.
    del batch, oracle, a, b
    gc.collect()
    return batch_s, oracle_s, counters


@register("engine.packet_megascale", suites=("tier1", "engine"),
          description="1000-host EC2 batch engine vs scalar oracle "
                      "(equivalence + >=5x speedup gate)")
def _engine_packet_megascale(ctx: BenchContext):
    batch_s, oracle_s, counters = packet_megascale()
    assert counters["rounds"] > 10_000
    assert counters["vector_rounds"] > counters["fallback_rounds"]
    # Local headroom is ~15x; 5x keeps the gate robust on noisy CI
    # machine classes while still catching a de-vectorized engine.
    assert oracle_s >= 5.0 * batch_s, (
        f"batch engine only {oracle_s / batch_s:.1f}x faster than the "
        f"scalar oracle (batch {batch_s:.2f}s, oracle {oracle_s:.2f}s)")


# ----------------------------------------------------------------- transport

def transport_loopback_transfer():
    """One 1 MiB fetch over 2 real UDP subflows on loopback with 2%
    seeded forward loss (server + client in one event loop); returns the
    bytes received in order."""
    import asyncio

    from repro.transport.client import loopback_selftest

    result = asyncio.run(loopback_selftest(
        controller="dts", subflows=2, total_bytes=1024 * 1024,
        loss_rate=0.02, loss_seed=42, timeout=60.0))
    return result.fetch.bytes_received


@register("transport.loopback_transfer", suites=("tier1", "transport"),
          description="1 MiB UDP loopback fetch, 2 subflows, 2% seeded loss")
def _transport_loopback_transfer(ctx: BenchContext):
    assert transport_loopback_transfer() >= 1024 * 1024


def transport_connection_churn(n_fetches: int = 200):
    """``n_fetches`` 16 KiB fetches, one after another, against one
    long-lived server (2 UDP subflows, loopback, no loss), then what the
    server is left holding; returns ``(seconds per fetch, registry
    instruments beyond the idle set, traced bytes retained per finished
    connection)``.

    The seconds are timed over the first ``n_fetches`` alone. The bytes
    come from a second stretch under ``tracemalloc``: a lead-in long
    enough to turn the flight ring over (allocations from before tracing
    started are invisible to it), then the growth over the following
    ``n_fetches // 2`` connections.
    """
    import asyncio
    import itertools
    import tracemalloc

    from repro.transport.client import fetch
    from repro.transport.server import TransportServer

    async def run():
        server = TransportServer(n_ports=2, record_interval=0.05,
                                 flight_capacity=256)
        ports = await server.start()
        idle = len(server.session.registry)
        next_id = itertools.count(1)

        async def churn(n: int) -> None:
            for _ in range(n):
                result = await fetch(
                    "127.0.0.1", ports, controller="dts",
                    total_bytes=16 * 1024, conn_id=next(next_id),
                    timeout=30.0)
                assert result.bytes_received >= 16 * 1024

        try:
            t0 = MONOTONIC_CLOCK()
            await churn(n_fetches)
            per_fetch = (MONOTONIC_CLOCK() - t0) / n_fetches
            gc.collect()
            tracemalloc.start()
            try:
                await churn(64)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                await churn(n_fetches // 2)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert not server.connections, "finished connections kept alive"
            return (per_fetch, len(server.session.registry) - idle,
                    grown / (n_fetches // 2))
        finally:
            await server.stop()

    return asyncio.run(run())


@register("transport.connection_churn", suites=("tier1", "transport"),
          description="200 16-KiB fetches on one server: seconds per fetch, "
                      "then instruments and bytes retained per finished "
                      "connection (gated: one row each)")
def _transport_connection_churn(ctx: BenchContext):
    from repro.transport.server import RETIRED_TELEMETRY

    per_fetch, instruments, retained = transport_connection_churn()
    # Two-path connections hold 6 gauges; only the newest finishers' stay.
    assert instruments <= 6 * RETIRED_TELEMETRY, (
        f"{instruments} per-connection instruments outlive their connections")
    # A frozen two-subflow /metrics row is ~2.3 KiB of dicts and floats;
    # a kept ServedConnection with its cores, gauges and rings was 14.
    assert retained < 6 * 1024, (
        f"{retained:.0f} bytes retained per finished connection")
    _record_per_call(per_fetch)
    registry = obs.registry_or_new()
    registry.gauge("bench.connection_churn.retained_instruments").set(
        instruments)
    registry.gauge(
        "bench.connection_churn.retained_bytes_per_connection").set(retained)


def transport_cold_import():
    """``import repro.transport.server`` in a fresh interpreter — what a
    ``repro serve`` process costs before its first HELLO; numpy may not
    get loaded.  Returns :func:`_cold_import`'s triple."""
    return _cold_import("import repro.transport.server", ("numpy",))


@register("transport.cold_import", suites=("tier1", "transport"),
          description="fresh interpreter: start-up + `import "
                      "repro.transport.server` (no numpy; module count and "
                      "peak RSS recorded)")
def _transport_cold_import(ctx: BenchContext):
    modules, own, maxrss_kib = transport_cold_import()
    # asyncio + the stdlib tier is ~200 modules; numpy alone adds ~100.
    assert modules < 260, (
        f"{modules} modules after import repro.transport.server")
    # 22 measured: the dashboard and Prometheus exposition load with the
    # metrics endpoint, a controller with its first connection; 42 when
    # every controller, radio model and the manifest loaded at import.
    assert own <= 22, f"{own} repro modules after import repro.transport.server"
    registry = obs.registry_or_new()
    registry.gauge("bench.transport_cold_import.modules").set(modules)
    registry.gauge("bench.transport_cold_import.repro_modules").set(own)
    registry.gauge("bench.transport_cold_import.maxrss_kib").set(maxrss_kib)


# ------------------------------------------------------------------ campaign

def campaign_specs():
    """The small 2x2 (subflows x seeds) sweep the campaign cases run."""
    from repro.campaign import RunSpec

    return [RunSpec(topology="bcube", n_subflows=nsub, seed=seed,
                    duration=1.0, dt=0.01)
            for nsub in (1, 2) for seed in (1, 2)]


def campaign_cold_sweep(cache_dir):
    """Run the sweep against an empty cache; returns the outcomes."""
    from repro.campaign import CampaignExecutor, ResultCache

    cache = ResultCache(cache_dir)
    executor = CampaignExecutor(jobs=1, cache=cache)
    outcomes = executor.run(campaign_specs())
    assert all(o.ok for o in outcomes)
    assert cache.stats.writes == len(outcomes)
    return outcomes


def campaign_cached_replay(cache_dir):
    """Re-run the sweep against a warmed cache; returns the outcomes.

    The caller must have warmed ``cache_dir`` (see
    :func:`campaign_cold_sweep`) — every run must replay from cache.
    """
    from repro.campaign import CampaignExecutor, ResultCache

    cache = ResultCache(cache_dir)
    executor = CampaignExecutor(jobs=1, cache=cache)
    outcomes = executor.run(campaign_specs())
    assert all(o.cached for o in outcomes)
    return outcomes


def spec_hash_cost(n: int = 2000) -> float:
    """Per-spec content-hash cost in seconds over ``n`` RunSpecs."""
    from repro.campaign import RunSpec

    specs = [RunSpec(topology="bcube", n_subflows=1 + (i % 8), seed=i,
                     duration=1.0, dt=0.01) for i in range(n)]
    t0 = MONOTONIC_CLOCK()
    for spec in specs:
        spec.content_hash()
    return (MONOTONIC_CLOCK() - t0) / n


@register("campaign.cold_sweep", suites=("tier1", "campaign"),
          description="2x2 bcube sweep, empty cache (executor dispatch cost)")
def _campaign_cold(ctx: BenchContext):
    campaign_cold_sweep(ctx.tmp_path / "cache")


@register("campaign.cached_replay", suites=("tier1", "campaign"),
          description="2x2 bcube sweep, 100% cache hits (replay cost)",
          setup=lambda ctx: campaign_cold_sweep(ctx.tmp_path / "cache"))
def _campaign_replay(ctx: BenchContext):
    replayed = campaign_cached_replay(ctx.tmp_path / "cache")
    # Replay must be byte-stable, not merely "ok".
    assert json.dumps([o.metrics for o in replayed], sort_keys=True)


@register("campaign.spec_hash", suites=("tier1", "campaign"),
          description="RunSpec content-hash throughput (cache-key cost)")
def _campaign_spec_hash(ctx: BenchContext):
    per_spec = spec_hash_cost()
    assert per_spec < 1e-3
    _record_per_call(per_spec)


# ----------------------------------------------------------------------- obs

def traced_packet_transfer():
    """The packet transfer under a tracing obs session (overhead floor)."""
    with obs.session(trace=True):
        return packet_transfer()


def null_span_cost(n: int = 100_000) -> float:
    """Per-iteration cost of a disabled span + instant pair."""
    tracer = obs.NULL_TRACER
    t0 = MONOTONIC_CLOCK()
    for i in range(n):
        with tracer.span("hot", i=i):
            tracer.instant("tick", i=i)
    return (MONOTONIC_CLOCK() - t0) / n


def counter_inc_cost(n: int = 1_000_000):
    """(per-inc seconds, the counter) for ``n`` bare increments."""
    reg = obs.MetricsRegistry()
    counter = reg.counter("bench")
    t0 = MONOTONIC_CLOCK()
    for _ in range(n):
        counter.inc()
    return (MONOTONIC_CLOCK() - t0) / n, counter


def histogram_observe_cost(n: int = 200_000) -> float:
    """Per-observe cost of a default-bucket histogram."""
    reg = obs.MetricsRegistry()
    hist = reg.histogram("bench")
    t0 = MONOTONIC_CLOCK()
    for i in range(n):
        hist.observe(float(i & 1023))
    return (MONOTONIC_CLOCK() - t0) / n


def paired_ratios(base, treated, pairs: int):
    """``pairs`` pairs of one ``base`` and one ``treated`` run, alternating
    which of the two goes first; returns each pair's treated / base ratio.

    Both sides are timed on this process's CPU clock, not the wall clock:
    instrumentation costs CPU, and a CPU clock does not count the time a
    neighbour's load keeps the process descheduled.  On a shared 2-vCPU
    host with two busy loops beside it, the quartiles of three runs of 16
    recorder pair ratios spanned 0.61-1.57 on the wall clock and 0.94-1.14
    on the CPU clock.
    """
    ratios = []
    for i in range(pairs):
        cost = [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = process_time()
            (treated if side else base)()
            cost[side] = process_time() - t0
        ratios.append(cost[1] / cost[0])
    return ratios


#: The instrumentation budget the overhead cases gate, and the sign test's
#: significance level.
OVERHEAD_BUDGET = 0.05
SIGN_TEST_ALPHA = 0.05


def overhead_verdict(ratios):
    """Paired-difference verdict on per-pair treated / base ``ratios``.

    The overhead is over budget only when the median ratio exceeds
    ``1 + OVERHEAD_BUDGET`` *and* a one-sided sign test resolves the
    slowdown: the chance of at least this many slower pairs with no effect
    at all is at most ``SIGN_TEST_ALPHA`` (17 of 24 pairs, p = 0.032; 16 of
    24 give p = 0.076).  A busy neighbour slows one side of a few pairs,
    which moves a best-of-N ratio but hardly the median or the sign count.
    Returns ``(over, median ratio, slower pairs, p)``.
    """
    n = len(ratios)
    slower = sum(r > 1.0 for r in ratios)
    p = sum(comb(n, k) for k in range(slower, n + 1)) / 2 ** n
    mid = median(ratios)
    return mid > 1.0 + OVERHEAD_BUDGET and p <= SIGN_TEST_ALPHA, mid, slower, p


#: Pairs per overhead case: enough that the sign test resolves a slowdown
#: with up to seven pairs reading faster.  With 10% of CPU injected into the
#: instrumented side, 24 pairs failed 24 of 24 windows and 16 pairs 43 of 48
#: on a shared 2-vCPU host; unchanged code passed all of them.
OVERHEAD_PAIRS = 24


def recorder_overhead_ratios(pairs: int = OVERHEAD_PAIRS):
    """Overhead the live-telemetry layer adds to the packet transfer.

    Interleaves ``pairs`` 2 MB transfers under a plain obs session (the
    pre-existing ambient-counter cost, gated separately by
    ``obs.packet_engine_traced``) with ``pairs`` transfers whose
    session carries the full live layer — a
    :class:`~repro.obs.SeriesRecorder`, a
    :class:`~repro.obs.FlightRecorder`, and a deliberately generous
    cadence (10 series samples + 200 flight events per ~30 ms transfer,
    two orders of magnitude above the transport server's 2 Hz sampling
    default; ~0.3 ms of work, ~2% of the transfer).  Returns the per-pair
    live / plain ratios.
    """
    def base():
        with obs.session():
            assert packet_transfer(2) > 5_000

    def live():
        with obs.session() as session:
            recorder = session.attach_series(interval=0.0, capacity=256)
            flight = session.attach_flight(capacity=1024)
            events = packet_transfer(2)
            for _ in range(10):
                recorder.sample()
            for i in range(200):
                flight.record("loss", path=i & 1, total=i)
            assert events > 5_000

    return paired_ratios(base, live, pairs)


def _record_per_call(per_call: float) -> None:
    """Expose a microbench's per-call cost in the case metrics snapshot."""
    session = obs.active_session()
    if session is not None:
        session.registry.gauge("bench.per_call_s").set(per_call)


@register("obs.packet_engine_traced", suites=("tier1", "obs"),
          description="packet transfer with tracing enabled (session cost)",
          manages_session=True)
def _obs_traced_packet(ctx: BenchContext):
    assert traced_packet_transfer() > 10_000


@register("obs.null_span", suites=("tier1", "obs"),
          description="disabled span+instant pair (hot-path no-op floor)")
def _obs_null_span(ctx: BenchContext):
    per_call = null_span_cost()
    assert per_call < 5e-6
    _record_per_call(per_call)


@register("obs.counter_inc", suites=("tier1", "obs"),
          description="bare Counter.inc() (engine accumulator flush cost)")
def _obs_counter_inc(ctx: BenchContext):
    per_call, counter = counter_inc_cost()
    assert per_call < 1e-6
    assert counter.value >= 1_000_000
    _record_per_call(per_call)


@register("obs.histogram_observe", suites=("tier1", "obs"),
          description="Histogram.observe() with default buckets")
def _obs_histogram_observe(ctx: BenchContext):
    per_call = histogram_observe_cost()
    assert per_call < 5e-6
    _record_per_call(per_call)


def trace_overhead_ratios(pairs: int = OVERHEAD_PAIRS):
    """Overhead an enabled tracer adds to the UDP loopback transfer.

    Interleaves ``pairs`` 1 MiB lossless loopback self-tests with
    tracing off (the :data:`~repro.obs.NULL_TRACER` floor) against
    ``pairs`` with a live client+server tracer pair — the full
    distributed-tracing path: span stack, handshake propagation,
    per-subflow detached spans, loss/RTO instants.  Returns the per-pair
    traced / untraced ratios.
    """
    import asyncio

    from repro.transport.client import loopback_selftest

    def run(trace: bool) -> None:
        result = asyncio.run(loopback_selftest(
            controller="dts", subflows=2, total_bytes=total_bytes,
            loss_rate=0.0, timeout=60.0, trace=trace))
        if trace:
            assert result.client_shard is not None
            assert result.client_shard["events"]
        assert result.fetch.bytes_received >= total_bytes

    total_bytes = 1024 * 1024
    return paired_ratios(lambda: run(False), lambda: run(True), pairs)


def _gate_overhead(what: str, ratios) -> None:
    over, mid, slower, p = overhead_verdict(ratios)
    assert not over, (
        f"{what} overhead {mid - 1:.1%} (median of {len(ratios)} pairs), "
        f"{slower}/{len(ratios)} pairs slower, sign test p={p:.3f}: "
        f"over {OVERHEAD_BUDGET:.0%}")


@register("obs.recorder_overhead", suites=("tier1", "obs"),
          description="series+flight recorder drag on the packet transfer "
                      "(paired verdict: gated <5%)",
          manages_session=True)
def _obs_recorder_overhead(ctx: BenchContext):
    _gate_overhead("live-telemetry", recorder_overhead_ratios())


@register("obs.trace_overhead", suites=("tier1", "obs"),
          description="tracer drag on the UDP loopback transfer "
                      "(paired verdict: gated <5%)",
          manages_session=True)
def _obs_trace_overhead(ctx: BenchContext):
    _gate_overhead("tracing", trace_overhead_ratios())
