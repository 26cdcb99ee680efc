"""Ablation — responsiveness vs TCP-friendliness across the algorithms.

Section V.A: "there is a tradeoff between TCP-friendliness and
responsiveness". This bench integrates the bare Eq. 3 model from a cold
start for each decomposed algorithm, reports the settling time alongside
the Condition 1 verdict, and checks the tradeoff's shape: the unfriendly
algorithm (EWTCP, psi_h > 1) converges no slower than the friendly ones,
and DTS's eps ~ 2 on clean paths buys back responsiveness without giving
up expected friendliness.
"""

import numpy as np
from conftest import run_once

from repro.core import (
    check_condition1,
    decomposition,
    responsiveness,
    solve_equilibrium,
)
from repro.core.model import CongestionModel, make_psi_dts

ALGOS = ["lia", "olia", "balia", "ecmtcp", "ewtcp", "coupled"]


def evaluate():
    kwargs = dict(rtt=[0.05, 0.05], loss=[0.01, 0.01],
                  x0=[1.0, 1.0], duration=300.0)
    results = {}
    for name in ALGOS:
        model = decomposition(name)
        settle = responsiveness(model, **kwargs)
        eq = solve_equilibrium(model, np.array([0.05, 0.05]),
                               np.array([0.01, 0.01]))
        friendly = check_condition1(model, eq.state).satisfied
        results[name] = (settle, friendly)
    dts = CongestionModel("dts", make_psi_dts())
    results["dts"] = (responsiveness(dts, **kwargs), True)
    return results


def test_responsiveness_friendliness_tradeoff(benchmark):
    # Warm-up: integrate_model imports scipy.integrate (and with it
    # scipy.optimize) on first use, ~0.4 s once per process, which must
    # not land inside the single timed round.
    responsiveness(decomposition("lia"), rtt=[0.05], loss=[0.01],
                   x0=[1.0], duration=1.0)
    results = run_once(benchmark, evaluate)

    print("\nResponsiveness (cold-start settling time, 2 equal paths):")
    for name, (settle, friendly) in results.items():
        tag = "friendly" if friendly else "UNFRIENDLY"
        print(f"  {name:8s} settle={settle:7.2f} s  {tag}")

    # The unfriendly aggressor converges at least as fast as LIA.
    assert results["ewtcp"][0] <= results["lia"][0] * 1.05
    assert not results["ewtcp"][1]
    # DTS on clean paths is at least as responsive as OLIA (eps ~ 2).
    assert results["dts"][0] <= results["olia"][0] * 1.05
    # All friendly kernels settle eventually.
    for name in ("lia", "olia", "balia", "ecmtcp"):
        assert results[name][0] < 300.0
        assert results[name][1]
