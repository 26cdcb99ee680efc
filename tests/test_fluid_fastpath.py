"""Equivalence tests for the fluid engine's step loop.

The loop's optimisations (the raw CSR routing product, preallocated step
buffers, loss rows drawn in blocks and skipped on loss-free steps) are
*behaviour-preserving*: with the same network and seed,
``FluidSimulation.run`` must produce bit-identical results to the
straight-line reference loop in ``tests/oracles/fluid_reference.py`` —
every ``SimulationResult`` array, the ``fluid.residual`` gauge, the
``fluid.step`` trace instants, and the final RNG state, the engine's
stdlib generator against the reference's own numpy ``default_rng``. These
tests pin that down under random topologies, algorithm mixes and seeds, on
the two routing matrices a second kernel used to exist for (dense,
non-unit weights), and cover the block reader in isolation.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro._uniforms import UniformBlocks
from repro.errors import ConfigurationError
from repro.fluidsim import FluidNetwork, FluidSimulation
from repro.net.rand import Pcg64
from repro.topology import FatTree
from repro.units import ms
from tests.oracles.fluid_reference import run_reference

# ------------------------------------------------------------------ helpers

#: Algorithm pool for random cohort mixes (aliases included on purpose —
#: they must land in the same cohort as their canonical name).
ALGORITHMS = ["reno", "ewtcp", "coupled", "lia", "olia", "balia",
              "ecmtcp", "wvegas", "dctcp", "dts", "dts-ext"]


def _build_net(pair_seed: int, algo_picks, n_subflows: int) -> FluidNetwork:
    """A small fat-tree network with len(algo_picks) random connections.

    Each call with the same arguments builds an identical network; a
    fresh one is needed per simulation because algorithm adapters may
    hold per-run state (e.g. DCTCP's alpha estimator).
    """
    topo = FatTree(4, link_delay=ms(1))
    rng = np.random.default_rng(pair_seed)
    hosts = list(topo.hosts)
    net = FluidNetwork(topo, path_seed=pair_seed)
    for algo in algo_picks:
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        net.add_connection(hosts[int(src)], hosts[int(dst)], algo,
                           n_subflows=n_subflows)
    net.finalize()
    return net


def _run(net: FluidNetwork, *, reference: bool, seed: int, n_steps: int):
    """Run one sim, on the engine or on the reference loop; returns
    (result, registry snapshot, fluid.step records, final RNG state)."""
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer()
    dt = 0.004
    sim = FluidSimulation(net, dt=dt, seed=seed, metrics=registry,
                          tracer=tracer)
    if reference:
        rng = np.random.default_rng(seed)
        res = run_reference(sim, n_steps * dt, rng)
        state = rng.bit_generator.state
    else:
        res = sim.run(n_steps * dt)
        state = sim.rng.state
    steps = [r for r in tracer.records if r["name"] == "fluid.step"]
    return res, registry.snapshot(), steps, state


def _assert_bit_identical(got, want):
    """Every SimulationResult field byte-identical (floats compared as
    bits, not approximately)."""
    assert got.duration == want.duration
    for name in ("connection_goodput_bps", "connection_bits", "loss_events",
                 "mean_rtt", "mean_utilization"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.tobytes() == w.tobytes(), f"{name} differs"
    for name in ("host_energy_j", "switch_energy_j"):
        assert getattr(got, name) == getattr(want, name), f"{name} differs"
    for name in ("sample_times", "sample_goodput_bps", "sample_power_w"):
        assert getattr(got, name) == getattr(want, name), f"{name} differs"


def _eq_args(a: dict, b: dict) -> bool:
    """Dict equality where nan == nan (residual is nan on step 0)."""
    if a.keys() != b.keys():
        return False
    for k, va in a.items():
        vb = b[k]
        if isinstance(va, float) and isinstance(vb, float):
            if np.isnan(va) and np.isnan(vb):
                continue
            if va != vb:
                return False
        elif va != vb:
            return False
    return True


def _assert_runs_equivalent(fast, legacy):
    res_f, snap_f, steps_f, rng_f = fast
    res_l, snap_l, steps_l, rng_l = legacy
    _assert_bit_identical(res_f, res_l)
    # Metrics snapshots match except wall time (legitimately differs).
    for snap in (snap_f, snap_l):
        snap.pop("engine.wall_time_s", None)
    keys = set(snap_f) | set(snap_l)
    for key in sorted(keys):
        vf, vl = snap_f.get(key), snap_l.get(key)
        if isinstance(vf, float) and isinstance(vl, float) \
                and np.isnan(vf) and np.isnan(vl):
            continue
        assert vf == vl, f"metric {key}: {vf!r} != {vl!r}"
    # Same per-step trace instants (ts/depth are wall-clock artefacts).
    assert len(steps_f) == len(steps_l)
    for rf, rl in zip(steps_f, steps_l):
        assert _eq_args(rf["args"], rl["args"]), (rf["args"], rl["args"])
    # The engine must consume the RNG stream exactly like the reference's
    # per-step draws, leaving the generator in the same state.
    assert rng_f == rng_l


# ------------------------------------------------- fast vs legacy property


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pair_seed=st.integers(0, 10_000),
    algo_picks=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4),
    n_subflows=st.integers(1, 4),
    seed=st.integers(0, 50),
    n_steps=st.integers(2, 40),
)
def test_fast_path_bit_identical_to_legacy(pair_seed, algo_picks, n_subflows,
                                           seed, n_steps):
    """Random topology/algorithm/seed combinations: the engine is
    indistinguishable from the reference loop, bit for bit.  Step counts
    that are not a multiple of the energy sampling cadence exercise the
    clamped trailing window."""
    fast = _run(_build_net(pair_seed, algo_picks, n_subflows),
                reference=False, seed=seed, n_steps=n_steps)
    legacy = _run(_build_net(pair_seed, algo_picks, n_subflows),
                  reference=True, seed=seed, n_steps=n_steps)
    _assert_runs_equivalent(fast, legacy)


def test_interleaved_fast_and_legacy_runs_share_one_sim():
    """Successive calls continue one trajectory, whichever loop advances
    it: run() twice, then the reference on the same sim object (which
    rebinds ``sim.rtt`` — the engine's views must rebind after it), then
    run() again, each result matching a sim only the reference advances."""
    net_a = _build_net(11, ["lia", "balia"], 2)
    net_b = _build_net(11, ["lia", "balia"], 2)
    sim = FluidSimulation(net_a, dt=0.004, seed=5)
    ref = FluidSimulation(net_b, dt=0.004, seed=5)
    ref_rng = np.random.default_rng(5)
    steps = 20

    def reference_on_sim(duration):
        # The reference draws through numpy from where the sim's generator
        # stands; the sim's generator then jumps over what it drew.
        rng = np.random.default_rng()
        rng.bit_generator.state = sim.rng.state
        result = run_reference(sim, duration, rng)
        sim.rng.advance(steps * net_a.n_subflows)
        assert sim.rng.state == rng.bit_generator.state
        return result

    for advance in (sim.run, sim.run, reference_on_sim, sim.run):
        got = advance(steps * 0.004)
        want = run_reference(ref, steps * 0.004, ref_rng)
        _assert_bit_identical(got, want)
    assert sim.rng.state == ref_rng.bit_generator.state


# ------------------------------------- the matrices the second kernel served


def _tiny_dense_net() -> FluidNetwork:
    """Two hosts, one path: every subflow crosses half the links."""
    from tests.test_fluidsim import tiny_topology

    net = FluidNetwork(tiny_topology())
    net.add_connection("a", "b", "lia", n_subflows=1)
    net.finalize()
    assert len(net.paths.indices) / (net.n_links * net.n_subflows) > 0.25
    return net


def _weighted_net() -> FluidNetwork:
    """A stored routing weight forced to 2.0 (a path repeating a link)."""
    net = _build_net(1, ["lia", "dctcp"], 2)
    data = net.paths.data.copy()
    data[0] = 2.0
    net.paths = dataclasses.replace(net.paths, data=data)
    return net


@pytest.mark.parametrize("build", [_tiny_dense_net, _weighted_net],
                         ids=["dense", "weighted"])
def test_dense_or_weighted_routing_matches_the_reference(build):
    """The deleted ``"dense"`` arm ran scipy's ``R @ x`` on these two
    kinds of matrix; the one kernel takes a data array and any density,
    and still equals the reference loop's ``R @ x`` bit for bit."""
    fast = _run(build(), reference=False, seed=1, n_steps=60)
    legacy = _run(build(), reference=True, seed=1, n_steps=60)
    _assert_runs_equivalent(fast, legacy)
    assert fast[0].connection_bits.sum() > 0


# ------------------------------------------------------------ block reader


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), width=st.integers(1, 20),
       block=st.integers(1, 17),
       reads=st.lists(st.booleans(), min_size=1, max_size=100))
def test_uniform_blocks_stream_identity(seed, width, block, reads):
    """Any interleaving of ``next_row`` and ``skip_row`` reads exactly the
    rows of ``default_rng(seed).random((rows, width))`` it does not skip,
    and leaves the generator where that array leaves numpy's."""
    blocked = UniformBlocks(Pcg64(seed), width, len(reads),
                            rows_per_block=block)
    ref = np.random.default_rng(seed)
    rows = ref.random((len(reads), width))
    for row, read in zip(rows, reads):
        if read:
            assert blocked.next_row().tobytes() == row.tobytes()
        else:
            blocked.skip_row()
    assert blocked.rng.state == ref.bit_generator.state


def test_uniform_blocks_exhaustion_and_refills():
    blocked = UniformBlocks(Pcg64(0), 4, 10, rows_per_block=4)
    for _ in range(10):
        blocked.next_row()
    assert blocked.refills == 3  # 4 + 4 + 2 rows
    with pytest.raises(ConfigurationError):
        blocked.next_row()
    skipping = UniformBlocks(Pcg64(0), 4, 10, rows_per_block=4)
    for _ in range(10):
        skipping.skip_row()
    assert skipping.refills == 0  # every block jumped over, none drawn
    assert skipping.rng.state == blocked.rng.state


def test_uniform_blocks_validates_arguments():
    rng = Pcg64(0)
    with pytest.raises(ConfigurationError):
        UniformBlocks(rng, -1, 10)
    with pytest.raises(ConfigurationError):
        UniformBlocks(rng, 4, -1)
    with pytest.raises(ConfigurationError):
        UniformBlocks(rng, 4, 10, rows_per_block=0)
