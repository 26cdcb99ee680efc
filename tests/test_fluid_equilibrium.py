"""Cross-validation of the direct equilibrium solver and the scale knobs.

Three contracts from PR 10 are pinned here:

* ``solve_fluid_equilibrium`` lands on the same stationary rate
  allocation a long-horizon ``FluidSimulation`` integrates to, across
  random topologies, supported-algorithm mixes, and seeds — on both the
  engine and the straight-line reference loop.  Tolerances are calibrated
  per family: the coupled algorithms agree within a few percent, while
  uncoupled AIMD (reno, ewtcp) legitimately runs hotter in the
  deterministic fluid equilibrium than the stochastic sawtooth (the
  solver holds the bottleneck at capacity; the engine leaves troughs
  unused), so those get a loose one-sided band.
* Structurally invalid solves raise the typed
  :class:`~repro.errors.EquilibriumError` (unsupported algorithms,
  empty/unfinalized networks, non-positive parameters) and successful
  solves carry convergence diagnostics.
* The ``dtype`` knob: float32 stepping tracks the float64 reference
  within tight drift bounds, ``"auto"`` engages float32 only past the
  size threshold, and invalid values are rejected.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.fluidsim.engine as engine_mod
import repro.fluidsim.equilibrium as equilibrium_mod
import repro.obs as obs
from repro.errors import ConfigurationError, EquilibriumError, ModelError
from repro.fluidsim import (
    FluidNetwork,
    FluidSimulation,
    equilibrium_supported,
    solve_fluid_equilibrium,
)
from repro.fluidsim.adapters import create_fluid_algorithm
from repro.topology import FatTree
from repro.units import ms
from tests.oracles.fluid_reference import run_reference

# ------------------------------------------------------------------ helpers

#: Algorithms with a loss-balance equilibrium (the solver's domain).
SUPPORTED = ["reno", "ewtcp", "coupled", "lia", "olia", "balia",
             "ecmtcp", "dts"]
#: Algorithms whose extra dynamics (delay steering, ECN, energy prices)
#: have no fixed point of the solver's shape.
UNSUPPORTED = ["wvegas", "dctcp", "dts-ext"]


def _build_net(pair_seed: int, algo_picks, n_subflows: int) -> FluidNetwork:
    """A k=4 fat-tree with len(algo_picks) random connections; identical
    arguments build identical networks (fresh instance per run because
    adapters may hold per-run state)."""
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


#: Seconds the engine integrates before the measured window.  The
#: window-coupled algorithms climb slowly: three ``coupled`` connections
#: and a ``dts`` one (seed 7618, 2 subflows) take ~12 s to settle, and an
#: 8 s mean from t=0 sits 19% below their stationary rate.
_WARMUP = 16.0


def _engine_aggregate(net: FluidNetwork, *, reference: bool = False,
                      horizon: float = 8.0) -> float:
    """Long-horizon time-stepped aggregate goodput (the solver's oracle),
    from the engine or from the straight-line reference loop.

    The engine first runs :data:`_WARMUP` seconds and reports the mean of
    the ``horizon`` after it, so the oracle is the stationary rate the
    solver computes.  The reference loop's run includes its transient.
    """
    sim = FluidSimulation(net, dt=0.004, seed=1)
    if reference:
        return run_reference(sim, horizon,
                             np.random.default_rng(1)).aggregate_goodput_bps
    sim.run(_WARMUP)
    return sim.run(horizon).aggregate_goodput_bps


def _tolerance(algo_picks) -> float:
    """Calibrated relative-agreement band for an algorithm mix."""
    picks = set(algo_picks)
    if picks & {"reno", "ewtcp"}:
        # Uncoupled AIMD: deterministic equilibrium sits up to ~40%
        # above the stochastic sawtooth mean.
        return 0.45
    return 0.20


# ----------------------------------------------- solver vs engine property


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pair_seed=st.integers(0, 10_000),
    algo_picks=st.lists(st.sampled_from(SUPPORTED), min_size=1, max_size=4),
    n_subflows=st.integers(1, 4),
)
@example(pair_seed=7618, algo_picks=["coupled", "coupled", "coupled", "dts"],
         n_subflows=2)
def test_solver_matches_time_stepped_engine(pair_seed, algo_picks,
                                            n_subflows):
    """Random topology/algorithm/seed draws: the direct solve and a
    long-horizon integration agree on the aggregate rate allocation."""
    eq = solve_fluid_equilibrium(_build_net(pair_seed, algo_picks,
                                            n_subflows))
    assert eq.converged, (
        f"solver stalled at residual {eq.residual:.3g} on "
        f"{algo_picks} x{n_subflows} (seed {pair_seed})")
    engine = _engine_aggregate(_build_net(pair_seed, algo_picks, n_subflows))
    rel = abs(eq.aggregate_goodput_bps - engine) / engine
    assert rel < _tolerance(algo_picks), (
        f"solver {eq.aggregate_goodput_bps:.3e} vs engine {engine:.3e} "
        f"({rel:.1%}) for {algo_picks} x{n_subflows} (seed {pair_seed})")


def test_solver_matches_legacy_reference_loop():
    """The straight-line reference loop is the independent oracle: the
    solver must agree with it too, not just with the engine."""
    for algos, n_sub in [(["lia", "lia", "olia"], 2), (["dts", "balia"], 3)]:
        eq = solve_fluid_equilibrium(_build_net(17, algos, n_sub))
        assert eq.converged
        legacy = _engine_aggregate(_build_net(17, algos, n_sub),
                                   reference=True, horizon=6.0)
        rel = abs(eq.aggregate_goodput_bps - legacy) / legacy
        assert rel < _tolerance(algos), f"{algos}: {rel:.1%}"


def test_equilibrium_state_is_self_consistent():
    """The returned arrays satisfy the model's own definitional
    relations (x = w/rtt, goodput = rate x (1 - p), rtt >= base)."""
    net = _build_net(3, ["lia", "dts", "balia"], 2)
    eq = solve_fluid_equilibrium(net)
    assert eq.converged
    np.testing.assert_allclose(eq.x_pkts, eq.w / eq.rtt, rtol=1e-12)
    assert np.all(eq.rtt >= net.base_rtt - 1e-15)
    assert np.all(eq.w >= 1.0)
    assert np.all((eq.p_path >= 0) & (eq.p_path <= 0.5))
    assert np.all((eq.link_utilization >= 0) & (eq.link_utilization <= 1))
    assert np.all((eq.queue_bits >= 0) & (eq.queue_bits <= net.buffer_bits))
    per_sub = eq.x_pkts * net.packet_bits * (1.0 - eq.p_path)
    want = np.bincount(net.subflow_conn, weights=per_sub,
                       minlength=len(net.connections))
    np.testing.assert_allclose(eq.connection_goodput_bps, want, rtol=1e-12)
    assert eq.aggregate_goodput_bps == pytest.approx(np.sum(want))


def test_solver_reports_convergence_diagnostics():
    eq = solve_fluid_equilibrium(_build_net(5, ["lia", "lia"], 2))
    assert eq.converged
    assert 10 < eq.iterations <= 400
    assert eq.residual < 1e-3
    assert eq.residual == pytest.approx(
        max(eq.residual_window, eq.residual_capacity))


def test_known_stall_is_reported_and_bounded():
    """The hypothesis draw ROADMAP item 4 names: the residual stays above
    tolerance for all 400 iterations (capacity 0.0067, window 0.0054).  The
    solve says so, its residual stays small, and its aggregate still lands
    inside the mix's band around the stepper: a stall is reported and
    bounded, never a silent wrong number."""
    algos = ["olia", "reno", "reno"]
    eq = solve_fluid_equilibrium(_build_net(1386, algos, 2))
    assert eq.converged is False
    assert eq.iterations == 400
    assert eq.residual <= 0.01  # 0.0067
    engine = _engine_aggregate(_build_net(1386, algos, 2))
    rel = abs(eq.aggregate_goodput_bps - engine) / engine
    assert rel < _tolerance(algos), f"{rel:.1%}"  # 0.03%


def test_non_converged_solve_returns_result_not_raise(monkeypatch):
    """Starving the iteration budget must yield a diagnosable result
    (the campaign executor's fallback trigger), never an exception."""
    monkeypatch.setattr(equilibrium_mod, "_MAX_ITER", 3)
    eq = solve_fluid_equilibrium(_build_net(5, ["lia", "lia"], 2))
    assert not eq.converged
    assert eq.iterations == 3
    assert eq.residual >= 1e-3


def test_solver_explains_a_stall_through_obs():
    """ROADMAP item 6: a non-converging solve says why.  Two hundred reno
    flows over one two-link path with one-packet buffers offer more than
    the links can shed at the price ceiling, so both sit pinned there; the
    two reverse links carry nothing and stay at the floor."""
    from tests.test_fluidsim import tiny_topology

    net = FluidNetwork(tiny_topology(), buffer_packets=1)
    for _ in range(200):
        net.add_connection("a", "b", "reno", n_subflows=1)
    net.finalize()
    with obs.session() as session:
        eq = solve_fluid_equilibrium(net)
    signals = session.registry.snapshot()
    assert not eq.converged
    assert signals["fluid.equilibrium.ceiling_links"] == 2
    assert signals["fluid.equilibrium.iterations"] == eq.iterations == 400
    assert signals["fluid.equilibrium.residual_capacity"] == eq.residual_capacity > 1
    assert signals["fluid.equilibrium.residual_window"] == eq.residual_window
    assert signals["fluid.equilibrium.floor_bound_subflows"] == 0
    json.dumps(signals)  # plain numbers: a manifest can carry them

    # A solve that converges pins nothing, and iterations accumulate.
    with obs.session() as session:
        first = solve_fluid_equilibrium(_build_net(5, ["lia", "lia"], 2))
        second = solve_fluid_equilibrium(_build_net(5, ["lia", "lia"], 2))
    signals = session.registry.snapshot()
    assert signals["fluid.equilibrium.ceiling_links"] == 0
    assert signals["fluid.equilibrium.iterations"] == first.iterations + second.iterations
    assert signals["fluid.equilibrium.floor_bound_subflows"] == int(
        np.count_nonzero(second.w <= 1.0))


# --------------------------------------------------------------- typed errors


def test_unsupported_algorithms_raise_equilibrium_error():
    for algo in UNSUPPORTED:
        net = _build_net(1, [algo, "lia"], 2)
        with pytest.raises(EquilibriumError,
                           match="no loss-balance equilibrium"):
            solve_fluid_equilibrium(net)


def test_unfinalized_network_raises():
    net = FluidNetwork(FatTree(4, link_delay=ms(1)), path_seed=1)
    net.add_connection(net.topology.hosts[0], net.topology.hosts[5], "lia",
                       n_subflows=2)
    with pytest.raises(EquilibriumError, match="finalize"):
        solve_fluid_equilibrium(net)


def test_empty_network_raises():
    net = FluidNetwork(FatTree(4, link_delay=ms(1)), path_seed=1)
    net.finalize()
    with pytest.raises(EquilibriumError, match="empty"):
        solve_fluid_equilibrium(net)


def test_no_rule_is_ever_shown_less_than_a_segment_or_no_rate(monkeypatch):
    """The stepper floors ``w`` at 1 every step and the solver clips to
    ``[1, 1e7]``, so a per-ACK rule never sees ``w < 1`` nor
    ``sum_k x_k <= 0`` — why the fluid adapters carry no ``max(w, 1)`` /
    ``+ eps`` guards around the controllers' rules."""
    from repro.fluidsim import adapters

    seen = {"calls": 0, "min_w": np.inf, "min_total_x": np.inf}

    def watching(method):
        def watched(self, st):
            seen["calls"] += 1
            seen["min_w"] = min(seen["min_w"], float(st.w.min()))
            seen["min_total_x"] = min(seen["min_total_x"],
                                      float(st.user_sum(st.x_pkts).min()))
            return method(self, st)
        return watched

    for cls in (adapters.FluidAlgorithm, adapters.FluidDts):
        monkeypatch.setattr(cls, "per_ack_increase",
                            watching(cls.per_ack_increase))
    # A congested, lossy stepper run from the floor, then the solver from it.
    stepped = FluidSimulation(_build_net(3, SUPPORTED * 3, 2), dt=0.004, seed=3,
                              initial_window=1.0).run(3.0)
    assert stepped.loss_events.sum() > 0
    calls = seen["calls"]
    monkeypatch.setattr(equilibrium_mod, "_INITIAL_WINDOW", 1.0)
    solve_fluid_equilibrium(_build_net(3, SUPPORTED * 3, 2))
    assert 0 < calls < seen["calls"]
    assert seen["min_w"] >= 1.0
    assert seen["min_total_x"] > 0.0


def test_equilibrium_error_is_a_model_error():
    assert issubclass(EquilibriumError, ModelError)


def test_equilibrium_supported_classification():
    for name in SUPPORTED:
        assert equilibrium_supported(create_fluid_algorithm(name)), name
    for name in UNSUPPORTED:
        assert not equilibrium_supported(create_fluid_algorithm(name)), name


# ------------------------------------------------------------ float32 mode


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pair_seed=st.integers(0, 10_000),
    algo_picks=st.lists(st.sampled_from(SUPPORTED), min_size=1, max_size=3),
    seed=st.integers(0, 50),
)
def test_float32_drift_is_bounded(pair_seed, algo_picks, seed):
    """float32 stepping contracts to the same equilibrium as float64:
    aggregate goodput drifts by well under a part in a thousand."""
    def run(dtype):
        net = _build_net(pair_seed, algo_picks, 2)
        sim = FluidSimulation(net, dt=0.004, seed=seed, dtype=dtype)
        return sim.run(2.0)

    res32, res64 = run("float32"), run("float64")
    agg32, agg64 = res32.aggregate_goodput_bps, res64.aggregate_goodput_bps
    assert agg32 == pytest.approx(agg64, rel=1e-3)
    np.testing.assert_allclose(res32.connection_goodput_bps,
                               res64.connection_goodput_bps,
                               rtol=5e-3, atol=1e3)
    np.testing.assert_allclose(res32.mean_rtt, res64.mean_rtt, rtol=1e-3)


def test_float32_state_arrays_actually_engage():
    net = _build_net(2, ["lia"], 2)
    sim = FluidSimulation(net, dt=0.004, seed=1, dtype="float32")
    assert sim.compute_dtype == np.float32
    assert sim.w.dtype == np.float32
    sim.run(0.1)
    assert sim.w.dtype == np.float32
    assert sim.rtt.dtype == np.float32


def test_dtype_auto_resolution_threshold():
    """auto -> float64 below the subflow threshold, float32 at/above it
    (exercised via a lowered threshold, not a 65536-subflow build)."""
    net = _build_net(2, ["lia"], 2)
    assert FluidSimulation(net, dt=0.004, seed=1).compute_dtype == np.float64
    old = engine_mod._FLOAT32_AUTO_THRESHOLD
    try:
        engine_mod._FLOAT32_AUTO_THRESHOLD = 1
        sim = FluidSimulation(net, dt=0.004, seed=1)
        assert sim.compute_dtype == np.float32
    finally:
        engine_mod._FLOAT32_AUTO_THRESHOLD = old


def test_invalid_dtype_rejected():
    net = _build_net(2, ["lia"], 1)
    with pytest.raises(ConfigurationError, match="dtype"):
        FluidSimulation(net, dt=0.004, seed=1, dtype="float16")


def test_compute_arrays_cache_and_dtypes():
    net = _build_net(2, ["lia"], 2)
    ca64 = net.compute_arrays(np.float64)
    assert ca64.base_rtt is net.base_rtt          # canonical, no copy
    assert net.compute_arrays(np.float64) is ca64  # cached
    ca32 = net.compute_arrays(np.float32)
    assert ca32.base_rtt.dtype == np.float32
    assert net.compute_arrays(np.float32) is ca32
    np.testing.assert_allclose(ca32.capacity, net.capacity, rtol=1e-6)
