"""Analytical core: the paper's congestion-control model and DTS design.

- :mod:`repro.core.model` -- Eq. (3) and the Section IV decompositions;
- :mod:`repro.core.conditions` -- Condition 1 (TCP-friendliness) and
  Condition 2 (Pareto-optimality) checkers;
- :mod:`repro.core.dts` -- the Eq. (5) DTS factor and Algorithm 1's
  fixed-point evaluation;
- :mod:`repro.core.energy_price` -- the Eq. (6)-(9) energy price;
- :mod:`repro.core.equilibrium` -- numeric equilibria of the model
  (``solve_equilibrium``, the per-connection stationary point of the
  trajectory integrator below; ``solve_fluid_equilibrium``, the
  network-level fixed point);
- :mod:`repro.core.trajectories` -- direct ODE integration of Eq. (3) /
  Eq. (9) (``integrate_model``, fixed-step RK4) and the responsiveness
  metric.

``dts`` and ``energy_price`` are standard library only, the rest numpy
and none of it scipy; the names below resolve lazily, so
``repro.algorithms`` importing those two loads nothing else.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.conditions import (
        Condition1Report,
        aggregate_equilibrium_throughput,
        check_condition1,
        condition2_asymmetry,
        is_pareto_optimal_candidate,
        reno_equilibrium_throughput,
    )
    from repro.core.dts import (
        DtsFactorConfig,
        epsilon_exact,
        epsilon_taylor,
        rtt_ratio,
        taylor_absolute_error,
    )
    from repro.core.energy_price import (
        EnergyPriceConfig,
        per_ack_window_drain,
        phi,
        price_gradient,
        utility_ep,
    )
    from repro.core.equilibrium import (
        EquilibriumSolution,
        reno_window,
        solve_equilibrium,
    )
    from repro.core.model import (
        CongestionModel,
        ModelState,
        decomposition,
        decompositions,
        make_psi_dts,
    )
    from repro.core.trajectories import (
        Trajectory,
        constant,
        integrate_model,
        responsiveness,
        step,
    )

# Resolved on first access (PEP 562): ``repro.algorithms`` needs only
# ``repro.core.dts`` and ``repro.core.energy_price`` and must not pay for
# the model, solver and trajectory modules beside them.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.conditions": (
        "Condition1Report", "aggregate_equilibrium_throughput", "check_condition1",
        "condition2_asymmetry", "is_pareto_optimal_candidate",
        "reno_equilibrium_throughput",
    ),
    "repro.core.dts": (
        "DtsFactorConfig", "epsilon_exact", "epsilon_taylor", "rtt_ratio",
        "taylor_absolute_error",
    ),
    "repro.core.energy_price": (
        "EnergyPriceConfig", "per_ack_window_drain", "phi", "price_gradient", "utility_ep",
    ),
    "repro.core.equilibrium": ("EquilibriumSolution", "reno_window", "solve_equilibrium"),
    "repro.core.model": (
        "CongestionModel", "ModelState", "decomposition", "decompositions", "make_psi_dts",
    ),
    "repro.core.trajectories": (
        "Trajectory", "constant", "integrate_model", "responsiveness", "step",
    ),
})

__all__ = [
    "Condition1Report",
    "CongestionModel",
    "EquilibriumSolution",
    "DtsFactorConfig",
    "EnergyPriceConfig",
    "ModelState",
    "aggregate_equilibrium_throughput",
    "check_condition1",
    "condition2_asymmetry",
    "decomposition",
    "decompositions",
    "epsilon_exact",
    "epsilon_taylor",
    "is_pareto_optimal_candidate",
    "make_psi_dts",
    "per_ack_window_drain",
    "phi",
    "price_gradient",
    "reno_equilibrium_throughput",
    "reno_window",
    "rtt_ratio",
    "solve_equilibrium",
    "step",
    "taylor_absolute_error",
    "utility_ep",
    "Trajectory",
    "constant",
    "integrate_model",
    "responsiveness",
]
