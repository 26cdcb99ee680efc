"""Direct numerical integration of the paper's fluid model (Eq. 3 / Eq. 9).

Where :mod:`repro.fluidsim` simulates whole networks with queues and
sampled losses, this module integrates the *bare model* for one user under
prescribed loss/RTT environments — the tool for studying the analytic
properties Section V reasons about: convergence speed (responsiveness),
the equilibria of Conditions 1/2 (``solve_equilibrium`` runs this
integrator to the stationary point), and the response of psi designs to
path quality changes.

    dx_r/dt = psi_r(x) x_r^2/(RTT_r^2 (sum x)^2) - beta_r lambda_r x_r^2 - phi_r

The integrator is fixed-step classic RK4 in numpy.  Near an equilibrium
the drift's Jacobian is ~2 sqrt(beta p psi)/RTT, so a step of at most
:data:`STEP_RTTS` RTTs stays inside RK4's stability interval
(|lambda h| < 2.78) for p psi < 0.97: any loss rate at psi = 1.

Environments are callables of time so path quality can change mid-flight
(e.g. a step increase in loss on one path — the "path goes bad" event DTS
is designed around).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.model import CongestionModel, ModelState
from repro.errors import ModelError

#: Environment functions map time -> per-path array.
PathFunction = Callable[[float], np.ndarray]

#: Longest RK4 step, in smallest RTTs at the start of each output interval.
STEP_RTTS = 2.0


def constant(values: Sequence[float]) -> PathFunction:
    """An environment that never changes."""
    arr = np.asarray(values, dtype=float)
    return lambda t: arr


def step(before: Sequence[float], after: Sequence[float], at: float) -> PathFunction:
    """An environment that switches from ``before`` to ``after`` at ``at``."""
    b = np.asarray(before, dtype=float)
    a = np.asarray(after, dtype=float)
    if b.shape != a.shape:
        raise ModelError("before/after must have the same shape")
    return lambda t: b if t < at else a


@dataclass
class Trajectory:
    """Result of integrating the model."""

    times: np.ndarray
    #: Rates x_r(t), shape (n_paths, n_times), segments/second.
    rates: np.ndarray

    @property
    def total_rate(self) -> np.ndarray:
        return np.sum(self.rates, axis=0)

    def final_state(self, rtt: np.ndarray) -> ModelState:
        """The end state as a ModelState (windows w = x * RTT)."""
        x_end = self.rates[:, -1]
        return ModelState(w=x_end * rtt, rtt=rtt)

    def settling_time(self, *, tolerance: float = 0.05) -> float:
        """Time after which the total rate stays within ``tolerance`` of its
        final value — the responsiveness metric of Section V.A."""
        total = self.total_rate
        final = total[-1]
        if final <= 0:
            return float(self.times[-1])
        within = np.abs(total - final) <= tolerance * final
        # Last index where we were OUTSIDE the band:
        outside = np.where(~within)[0]
        if len(outside) == 0:
            return float(self.times[0])
        last_outside = outside[-1]
        if last_outside + 1 >= len(self.times):
            return float(self.times[-1])
        return float(self.times[last_outside + 1])


def integrate_model(
    model: CongestionModel,
    *,
    rtt: PathFunction,
    loss: PathFunction,
    base_rtt: Optional[PathFunction] = None,
    x0: Sequence[float],
    duration: float,
    n_samples: int = 400,
    x_floor: float = 1e-3,
) -> Trajectory:
    """Integrate Eq. (3) for one user.

    Parameters
    ----------
    model:
        A :class:`CongestionModel` (e.g. ``decomposition("lia")``).
    rtt, loss, base_rtt:
        Environment functions of time returning per-path arrays. ``base_rtt``
        defaults to the instantaneous ``rtt`` (no queueing memory).
    x0:
        Initial rates, segments/second.
    """
    x_init = np.asarray(x0, dtype=float)
    if np.any(x_init <= 0):
        raise ModelError("initial rates must be positive")
    n = len(x_init)

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        x_clamped = np.maximum(x, x_floor)
        rtt_t = np.asarray(rtt(t), dtype=float)
        base_t = np.asarray(base_rtt(t), dtype=float) if base_rtt else rtt_t
        loss_t = np.asarray(loss(t), dtype=float)
        if rtt_t.shape != (n,) or loss_t.shape != (n,):
            raise ModelError("environment functions must return n_paths values")
        state = ModelState(w=x_clamped * rtt_t, rtt=rtt_t, base_rtt=base_t)
        deriv = model.rate_derivative(state, loss_t)
        # Hold the floor: no decay below the minimum rate.
        return np.where((x <= x_floor) & (deriv < 0), 0.0, deriv)

    times = np.linspace(0.0, duration, n_samples)
    rates = np.empty((n, len(times)))
    rates[:, 0] = x = np.maximum(x_init, x_floor)
    for i in range(1, len(times)):
        start = float(times[i - 1])
        span = float(times[i]) - start
        h_max = STEP_RTTS * float(np.min(rtt(start)))
        steps = max(1, math.ceil(span / h_max - 1e-9))  # an exact multiple stays exact
        h = span / steps
        for t in start + h * np.arange(steps):
            k1 = rhs(t, x)
            k2 = rhs(t + h / 2, x + h / 2 * k1)
            k3 = rhs(t + h / 2, x + h / 2 * k2)
            k4 = rhs(t + h, x + h * k3)
            x = np.maximum(x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), x_floor)
        rates[:, i] = x
    return Trajectory(times=times, rates=rates)


def responsiveness(
    model: CongestionModel,
    *,
    rtt: Sequence[float],
    loss: Sequence[float],
    x0: Sequence[float],
    duration: float = 60.0,
    tolerance: float = 0.05,
) -> float:
    """Settling time from ``x0`` to equilibrium under a static environment —
    the responsiveness the paper trades against TCP-friendliness (Sec. V.A)."""
    traj = integrate_model(model, rtt=constant(rtt), loss=constant(loss), x0=x0,
                           duration=duration)
    return traj.settling_time(tolerance=tolerance)
