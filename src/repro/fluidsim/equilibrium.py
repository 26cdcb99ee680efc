"""Direct steady-state solver for the fluid network — no transient integration.

Peng et al. (PAPERS.md) build their whole methodology on solving the
fluid *equilibrium* instead of integrating Eq. 3 to it; this module does
the same for a finalized :class:`~repro.fluidsim.network.FluidNetwork`.
The stationary state of the time-stepped engine satisfies two coupled
balance conditions:

**Window balance** (per subflow). The engine grows windows by the
algorithm's per-ACK increase at ``x_r = w_r/RTT_r`` ACKs per second and
cuts them by the multiplicative decrease on loss events, which arrive as
a Poisson thinning of rate ``lambda_r = p_r x_r`` suppressed for one RTT
after each event (fast recovery).  The suppressed process is a renewal
process with effective event rate ``lambda_r / (1 + lambda_r RTT_r)``,
so zero mean drift means::

    increase_r(w) * x_r  =  eff_rate_r * (1 - factor_r(w)) * w_r

**Capacity complementarity** (per link).  A link is either under
capacity with an empty queue and no loss, or its queue is pinned full
and it drops exactly the excess: ``y_l (1 - p_l) = c_l`` whenever
``p_l > 0`` — the engine's ``p = (y - c)/y`` drop law rearranged.

The solver treats the per-link loss probabilities as *prices* and runs a
damped joint relaxation: windows take multiplicative steps toward their
balance point (``w <- w * (growth/drain)^0.4``, :data:`_DAMPING`) while
prices follow a multiplicative dual ascent on the delivered-load excess
(``p <- p * exp(1.2 * (y(1-p) - c)/c)``, :data:`_PRICE_GAIN`).  Prices
must move every iteration: for purely coupled decompositions (DTS) the
growth/drain ratio is independent of the subflow's own window, so with
frozen prices the per-subflow split has no restoring force.  Queue state
follows the prices — a link whose price exceeds :data:`_QUEUE_RAMP` is
treated as having a full buffer, ramping RTTs smoothly instead of
flapping the bottleneck set.

The per-subflow step size is sign-adaptive.  Algorithms whose increase
rule picks a discrete "best path" set (OLIA's epsilon allocation) have a
*discontinuous* best response: at a fixed step size the iterates can
enter a period-2 cycle, hopping across the discontinuity forever instead
of settling on it.  Whenever a subflow's drift direction flips, its step
is halved (floored well below the tolerance so residual chatter cannot
mask a genuine stall); while the direction is consistent the step
recovers geometrically back up to :data:`_DAMPING`.  Oscillation
amplitude then decays toward the cycle's center — the equilibrium
sitting exactly on the discontinuity — while well-behaved subflows keep
full-size steps.

Convergence is measured by a *rate-weighted* drift norm (how much of the
aggregate rate allocation one more iteration would move) plus the worst
capacity-excess on priced links; near-floored subflows carrying no
traffic drift harmlessly toward ``w = 1`` without holding the solve
hostage.

The solve iterates in a fixed workspace, as the stepper's ``_StepBuffers``
do: its subflow and link vectors and the per-cohort state views are made
once per call, and every iteration writes into them with ``out=``, so
the loop allocates no subflow-length array of its own; only the
adapters' temporaries remain.  The ufuncs and their order are those of
the plain expressions the comments spell out, so the result is bit for
bit what allocating them gave (``tests/data/solver_digests.json``).

Supported algorithms are exactly those whose dynamics are per-ACK
increase + multiplicative decrease (reno, ewtcp, coupled, lia, olia,
balia, ecmtcp, dts).  Algorithms with extra ``rate_adjustment`` dynamics
(wvegas' delay steering, dctcp's ECN drain, dts-ext's energy-price
drain) have no loss-balance fixed point of this shape and raise
:class:`~repro.errors.EquilibriumError` — the campaign executor falls
back to time-stepped integration for them.

Agreement with the time-stepped engine (``tests/test_fluid_equilibrium``
pins this) is tightest for the coupled family — LIA/OLIA/Balia/DTS
aggregate rates land within a few percent of a long-horizon
``FluidSimulation`` — while uncoupled AIMD (reno, ewtcp) runs hotter
than the stochastic sawtooth by up to ~40%: the deterministic fluid
equilibrium holds the bottleneck at capacity, where the discrete-loss
engine leaves sawtooth troughs unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.errors import EquilibriumError
from repro.fluidsim.adapters import FluidAlgorithm
from repro.fluidsim.network import FluidNetwork
from repro.fluidsim.state import CohortState

_EPS = 1e-12

#: Convergence tolerance on ``max(rate drift norm, worst capacity excess)``.
_TOL = 1e-3
#: Iteration budget; a solve still above ``_TOL`` after it is returned
#: unconverged (the campaign executor then steps the network instead).
_MAX_ITER = 400
#: Every subflow's starting window, segments: the stepper's default.
_INITIAL_WINDOW = 10.0
#: Largest per-subflow exponent of the multiplicative window step.
_DAMPING = 0.4
#: Gain of the multiplicative dual ascent on link prices.
_PRICE_GAIN = 1.2
#: Price above which a link's buffer is taken as full (queue ramps to it).
_QUEUE_RAMP = 1e-4
#: Every link's starting price.
_INITIAL_PRICE = 1e-3

#: Hard bounds on the multiplicative window step per iteration.
_RATIO_CLIP = (0.25, 4.0)
#: Per-subflow step-size adaptation: halve on a drift-direction flip,
#: recover by 1.1x while consistent.  The floor is far below ``_TOL`` so
#: a subflow chattering across a best-path discontinuity at floor step
#: moves the rate-weighted residual by less than the tolerance.
_STEP_DOWN = 0.5
_STEP_UP = 1.1
_STEP_FLOOR = 5e-4
#: Hard bound on the log-price step per iteration.
_PRICE_STEP_CLIP = 0.5
#: Price floor (prices decay geometrically, never reaching zero) and the
#: engine's p_path ceiling.
_PRICE_FLOOR = 1e-9
_PRICE_CEIL = 0.45


def equilibrium_supported(algorithm: FluidAlgorithm) -> bool:
    """Whether ``algorithm``'s fluid dynamics are loss-balance shaped.

    True exactly when the adapter keeps the base-class (all-zeros)
    ``rate_adjustment`` and reacts to loss rather than ECN: then the
    stationary condition is increase == loss drain and the solver
    applies.
    """
    return (
        type(algorithm).rate_adjustment is FluidAlgorithm.rate_adjustment
        and not algorithm.uses_ecn
    )


@dataclass(frozen=True)
class FluidEquilibrium:
    """Stationary state of a fluid network plus solve diagnostics."""

    #: Equilibrium congestion windows, segments (per subflow).
    w: np.ndarray
    #: Equilibrium RTTs (base + full-queue delays), seconds.
    rtt: np.ndarray
    #: Equilibrium rates w/rtt, segments/second.
    x_pkts: np.ndarray
    #: Per-path loss probability at equilibrium.
    p_path: np.ndarray
    #: Per-link loss probability (the solver's price variable).
    link_price: np.ndarray
    #: Per-link offered utilization min(y/c, 1).
    link_utilization: np.ndarray
    #: Equilibrium queue occupancy, bits (full on priced links).
    queue_bits: np.ndarray
    #: Delivered goodput per connection, bits/second.
    connection_goodput_bps: np.ndarray
    #: Whether the residual dropped below tolerance within ``_MAX_ITER``.
    converged: bool
    #: Relaxation iterations actually run.
    iterations: int
    #: Final residual max(rate drift norm, worst capacity excess).
    residual: float
    #: Rate-weighted window-drift component of the residual.
    residual_window: float
    #: Worst |delivered - capacity|/capacity over priced links.
    residual_capacity: float

    @property
    def aggregate_goodput_bps(self) -> float:
        """Sum of connection goodputs, bits/second."""
        return float(np.sum(self.connection_goodput_bps))


def solve_fluid_equilibrium(
    net: FluidNetwork,
    *,
    metrics: Optional[obs.MetricsRegistry] = None,
) -> FluidEquilibrium:
    """Solve the network's stationary rate allocation directly.

    Returns a :class:`FluidEquilibrium` whether or not the relaxation
    converged — check ``.converged`` (the campaign executor falls back
    to time-stepped integration when it is False).  Raises
    :class:`~repro.errors.EquilibriumError` for structurally invalid
    input: an unfinalized or empty network, or an unsupported algorithm.
    The ``fluid.equilibrium.*`` instruments go to ``metrics``, else to the
    ambient registry.
    """
    if net.base_rtt is None:
        raise EquilibriumError("finalize() the FluidNetwork before solving")
    n = net.n_subflows
    if n == 0:
        raise EquilibriumError("cannot solve an empty network (no subflows)")
    unsupported = sorted(
        cohort.algorithm.name for cohort in net.cohorts
        if not equilibrium_supported(cohort.algorithm)
    )
    if unsupported:
        raise EquilibriumError(
            "no loss-balance equilibrium for algorithm(s) "
            f"{', '.join(unsupported)}; use the time-stepped engine")

    paths = net.paths
    cap = net.capacity
    buf = net.buffer_bits
    pkt_bits = net.packet_bits
    base_rtt = net.base_rtt
    inv_cap = net.topology.link_inv_capacity

    # The workspace: every iteration writes into these with ``out=``, the
    # same ufuncs in the same order as the expressions in the comments.
    w = np.full(n, _INITIAL_WINDOW)
    step = np.full(n, _DAMPING)
    # The last drift direction, -1/0/1: exact in one byte.
    prev_sign = np.zeros(n, dtype=np.int8)
    rtt, p_path, x, qdelay = (np.empty(n) for _ in range(4))
    eff_rate, growth, drain, scratch = (np.empty(n) for _ in range(4))
    flip = np.empty(n, dtype=bool)
    price = np.full(net.n_links, _INITIAL_PRICE)
    # Two link vectors do double duty: ``y`` stages the per-link delays
    # before the load lands in it and the price step after, and settle()
    # rewrites ``queue_bits`` before it is read again, so the iteration's
    # ``excess`` lives there.
    queue_bits, y = np.empty(net.n_links), np.empty(net.n_links)
    excess = queue_bits
    active = np.empty(net.n_links, dtype=bool)
    # ecn_marked is only read by ECN algorithms, all unsupported here.
    marked = np.broadcast_to(0.0, (n,))
    states = [(cohort, CohortState(
        w=w[cohort.span], rtt=rtt[cohort.span], base_rtt=base_rtt[cohort.span],
        loss=p_path[cohort.span], queueing=qdelay[cohort.span],
        switch_hops=net.switch_hops[cohort.span], ecn_marked=marked[cohort.span],
        user_starts=cohort.user_starts,
        x=x[cohort.span])) for cohort in net.cohorts]

    def settle() -> None:
        """Queues, RTTs, path prices and rates at the current prices and
        windows."""
        # queue_bits = min(price / ramp, 1) * buf
        np.divide(price, _QUEUE_RAMP, out=queue_bits)
        np.minimum(queue_bits, 1.0, out=queue_bits)
        np.multiply(queue_bits, buf, out=queue_bits)
        # rtt = base_rtt + paths @ (queue_bits * inv_cap)
        np.multiply(queue_bits, inv_cap, out=y)
        paths.matvec(y, qdelay)
        np.add(base_rtt, qdelay, out=rtt)
        # p_path = min(paths @ price, 0.5); x = w / rtt
        paths.matvec(price, p_path)
        np.minimum(p_path, 0.5, out=p_path)
        np.divide(w, rtt, out=x)

    iterations = 0
    res_w = res_p = np.inf
    for iterations in range(1, _MAX_ITER + 1):
        settle()
        # eff_rate = lam / (1 + lam * rtt), lam = p_path * x
        np.multiply(p_path, x, out=eff_rate)
        np.multiply(eff_rate, rtt, out=scratch)
        np.add(1.0, scratch, out=scratch)
        np.divide(eff_rate, scratch, out=eff_rate)
        for cohort, st in states:
            sl = cohort.span
            increase = cohort.algorithm.per_ack_increase(st)
            factor = cohort.algorithm.loss_decrease_factor(st)
            np.multiply(increase, st.x_pkts, out=growth[sl])
            # drain = eff_rate * (1 - factor) * w
            np.subtract(1.0, factor, out=drain[sl])
            np.multiply(eff_rate[sl], drain[sl], out=drain[sl])
            np.multiply(drain[sl], w[sl], out=drain[sl])
        # log_ratio = log(clip((growth + eps) / (drain + eps)))
        np.add(growth, _EPS, out=growth)
        np.add(drain, _EPS, out=drain)
        np.divide(growth, drain, out=scratch)
        np.clip(scratch, *_RATIO_CLIP, out=scratch)
        log_ratio = np.log(scratch, out=scratch)
        # A drift-direction flip halves the step, a kept one regrows it.
        sign = np.sign(log_ratio, out=growth)
        np.multiply(sign, prev_sign, out=drain)
        np.less(drain, 0, out=flip)
        np.multiply(step, _STEP_DOWN, out=drain)
        np.maximum(drain, _STEP_FLOOR, out=drain)
        np.multiply(step, _STEP_UP, out=step)
        np.minimum(step, _DAMPING, out=step)
        np.copyto(step, drain, where=flip)
        np.copyto(prev_sign, sign, casting="unsafe")
        # w_new = clip(w * exp(step * log_ratio), 1, 1e7)
        np.multiply(step, log_ratio, out=scratch)
        np.exp(scratch, out=scratch)
        np.multiply(w, scratch, out=scratch)
        w_new = np.clip(scratch, 1.0, 1e7, out=scratch)
        # Rate-weighted drift: the fraction of aggregate rate this step
        # still moved.  Floor-bound subflows carry no rate and converge
        # in rate terms long before their windows settle at exactly 1.
        np.subtract(w_new, w, out=drain)
        np.abs(drain, out=drain)
        np.divide(drain, rtt, out=drain)
        res_w = float(np.sum(drain) / (np.sum(x) + _EPS))
        np.copyto(w, w_new)
        # y = paths.T @ ((w / rtt) * pkt_bits)
        np.divide(w, rtt, out=scratch)
        np.multiply(scratch, pkt_bits, out=scratch)
        paths.rmatvec(scratch, y)
        # excess = (y * (1 - price) - cap) * inv_cap
        np.subtract(1.0, price, out=excess)
        np.multiply(y, excess, out=excess)
        np.subtract(excess, cap, out=excess)
        np.multiply(excess, inv_cap, out=excess)
        # price = clip(price * exp(clip(gain * excess)), floor, ceiling)
        np.multiply(_PRICE_GAIN, excess, out=y)
        np.clip(y, -_PRICE_STEP_CLIP, _PRICE_STEP_CLIP, out=y)
        np.exp(y, out=y)
        np.multiply(price, y, out=price)
        np.clip(price, _PRICE_FLOOR, _PRICE_CEIL, out=price)
        np.greater(price, _QUEUE_RAMP, out=active)
        np.abs(excess, out=excess)
        res_p = float(np.max(excess, where=active, initial=0.0))
        if max(res_w, res_p) < _TOL and iterations > 10:
            break

    settle()
    # y = paths.T @ (x * pkt_bits); goodput = x * pkt_bits * (1 - p_path)
    np.multiply(x, pkt_bits, out=scratch)
    paths.rmatvec(scratch, y)
    goodput_sub = np.subtract(1.0, p_path, out=drain)
    np.multiply(scratch, goodput_sub, out=goodput_sub)
    utilization = np.multiply(y, inv_cap, out=y)
    np.minimum(utilization, 1.0, out=utilization)
    conn_goodput = np.bincount(net.subflow_conn, weights=goodput_sub,
                               minlength=len(net.connections))
    # Why a solve ended where it did: windows pinned at the floor carry no
    # rate, links priced at the ceiling cannot shed their excess.
    registry = metrics if metrics is not None else obs.registry_or_new()
    registry.counter("fluid.equilibrium.iterations").inc(iterations)
    registry.gauge("fluid.equilibrium.residual_window").set(res_w)
    registry.gauge("fluid.equilibrium.residual_capacity").set(res_p)
    registry.gauge("fluid.equilibrium.floor_bound_subflows").set(
        int(np.count_nonzero(w <= 1.0)))
    registry.gauge("fluid.equilibrium.ceiling_links").set(
        int(np.count_nonzero(price >= _PRICE_CEIL)))
    return FluidEquilibrium(
        w=w,
        rtt=rtt,
        x_pkts=x,
        p_path=p_path,
        link_price=price,
        link_utilization=utilization,
        queue_bits=queue_bits,
        connection_goodput_bps=conn_goodput,
        converged=bool(max(res_w, res_p) < _TOL),
        iterations=iterations,
        residual=float(max(res_w, res_p)),
        residual_window=res_w,
        residual_capacity=res_p,
    )
