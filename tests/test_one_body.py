"""Every equation the paper prints has one body, over an array namespace.

Eq. 2 (wired / wireless / switch power), Eq. 5, the Eqs. 6-9 price and
the eight per-ACK increase rules of Section IV are each one function whose
``xp`` argument (where it needs one) is ``numpy`` on an engine's arrays and
:mod:`repro._scalar` for one path on the standard library.  The test below
evaluates each body element by element through the scalar namespace and
once through ``np`` on the same random inputs and compares with ``==``.

``math.exp`` / ``pow`` and ``np.exp`` / ``np.power`` are different libms
that disagree in the last ulp on a few percent of inputs; choosing one is
the namespace's job (the batch engine's oracle passes ``np`` for exactly
this reason), not the body's.  So the exact comparison runs the scalar
side through :data:`PINNED` — ``repro._scalar`` with those two entries
swapped for numpy's scalar ufunc calls — and
:func:`test_libms_agree_to_the_last_ulps` bounds what the swap hides.
In float32 the scalar side is fed ``np.float32`` elements and parameters
(a ``float`` has no float32), which numpy's weak Python-scalar promotion
keeps in float32 through ``min`` / ``max`` / ``a if c else b``;
``math.sqrt`` would widen them to a ``float``, so :data:`PINNED` swaps it
too — in float64 it *is* ``np.sqrt``, bit for bit, which
:func:`test_sqrt_needs_no_pinning_in_float64` holds.
"""

import types

import numpy as np
import pytest

from repro import _scalar
from repro.algorithms import (
    balia_increase,
    coupled_increase,
    dts_increase,
    ecmtcp_increase,
    ewtcp_increase,
    lia_increase,
    olia_increase,
    reno_increase,
)
from repro.core.dts import dts_factor
from repro.core.energy_price import EnergyPriceConfig, path_price
from repro.energy.cpu import WiredPathPower, WirelessPathPower
from repro.energy.switch import SwitchPowerModel

N = 20_000

PINNED = types.SimpleNamespace(**{**vars(_scalar), "exp": np.exp, "power": np.power,
                                  "sqrt": np.sqrt})


def _typed(model, scalar_type):
    """``model`` with every float field converted to ``scalar_type``."""
    return type(model)(**{k: scalar_type(v) for k, v in vars(model).items()})


def _eq5(rng, t):
    base = rng.uniform(1e-4, 0.3, N)
    rtt = base * rng.uniform(1.0, 6.0, N)
    base[:4], rtt[:4] = [np.inf, 0.0, -1.0, 0.05], [0.05, 0.05, 0.05, 0.05]
    slope, center, ceiling = t(10.0), t(0.5), t(2.0)
    return (lambda xp, b, r: dts_factor(xp, b, r, slope, center, ceiling)), (base, rtt)


def _path_power(model):
    def case(rng, t):
        typed = _typed(model, t)
        x_bps = rng.uniform(0.0, 1e9, N)
        x_bps[: N // 4] = rng.uniform(0.0, 4e6, N // 4)  # below the duty-cycle knee
        x_bps[:2] = [0.0, -1.0]
        return typed.path_power, (x_bps, rng.uniform(1e-3, 0.4, N))
    return case


def _switch(rng, t):
    util = rng.uniform(-0.2, 1.2, N)
    util[:3] = [0.0, 1.0, 1.2]
    return _typed(SwitchPowerModel(), t).port_power, (util,)


def _price(rng, t):
    config = _typed(EnergyPriceConfig(kappa=1e-4, rho=0.7, gamma=1.9), t)
    hops = rng.integers(0, 7, N).astype(float)
    queueing = np.where(rng.random(N) < 0.5, 0.0, rng.uniform(0.0, 0.03, N))
    base = rng.uniform(1e-3, 0.3, N)
    return (lambda xp, h, q, b: path_price(xp, config, h, q, b)), (hops, queueing, base)


def _subflow(rng):
    """One subflow's ``(w, rtt)`` and the rate and window of the rest of
    its connection (zero on a quarter of the lanes: a single path)."""
    cwnd, rtt = rng.uniform(1.0, 500.0, N), rng.uniform(1e-3, 0.3, N)
    alone = rng.random(N) < 0.25
    other_w = np.where(alone, 0.0, rng.uniform(1.0, 500.0, N))
    return cwnd, rtt, other_w / rng.uniform(1e-3, 0.3, N), other_w


def _plain(rule):
    """A rule that is plain arithmetic takes no namespace."""
    return lambda xp, *args: rule(*args)


def _reno(rng, t):
    return _plain(reno_increase), _subflow(rng)[:1]


def _ewtcp(rng, t):
    return ewtcp_increase, (_subflow(rng)[0], rng.integers(1, 9, N).astype(float))


def _coupled(rng, t):
    cwnd, _, _, other_w = _subflow(rng)
    return _plain(coupled_increase), (cwnd, cwnd + other_w)


def _lia(rng, t):
    cwnd, rtt, other_x, _ = _subflow(rng)
    best = np.maximum(cwnd / (rtt * rtt), other_x * other_x)
    return lia_increase, (cwnd, best, cwnd / rtt + other_x)


def _olia(rng, t):
    cwnd, rtt, other_x, _ = _subflow(rng)
    alpha = np.where(rng.random(N) < 0.5, 0.0, rng.uniform(-0.5, 0.5, N))
    return _plain(olia_increase), (cwnd, rtt, cwnd / rtt + other_x, alpha)


def _balia(rng, t):
    cwnd, rtt, other_x, _ = _subflow(rng)
    return _plain(balia_increase), (
        cwnd, rtt, np.maximum(cwnd / rtt, other_x), cwnd / rtt + other_x)


def _ecmtcp(rng, t):
    cwnd, rtt, _, other_w = _subflow(rng)
    n = rng.integers(1, 9, N).astype(float)
    return _plain(ecmtcp_increase), (
        rtt, n, np.minimum(rtt, rng.uniform(1e-3, 0.3, N)), cwnd + other_w)


def _dts(rng, t):
    cwnd, rtt, other_x, _ = _subflow(rng)
    return _plain(dts_increase), (
        cwnd, rtt, rng.uniform(0.01, 2.0, N), cwnd / rtt + other_x)


BODIES = {
    "eq5": _eq5,
    "wired_power": _path_power(WiredPathPower()),
    "wireless_power": _path_power(WirelessPathPower()),
    "switch_port_power": _switch,
    "energy_price": _price,
    "reno_increase": _reno,
    "ewtcp_increase": _ewtcp,
    "coupled_increase": _coupled,
    "lia_increase": _lia,
    "olia_increase": _olia,
    "balia_increase": _balia,
    "ecmtcp_increase": _ecmtcp,
    "dts_increase": _dts,
}


def _both_ways(name, dtype, namespace):
    """``(elementwise through ``namespace``, once through np)``, as float64."""
    scalar_type = float if dtype is np.float64 else dtype
    body, inputs = BODIES[name](np.random.default_rng(21), scalar_type)
    arrays = [a.astype(dtype) for a in inputs]
    once = body(np, *arrays)
    each = [body(namespace, *(scalar_type(a[i]) for a in arrays)) for i in range(N)]
    return np.asarray(each, dtype=np.float64), once


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("name", BODIES)
def test_scalar_and_array_namespaces_compute_the_same_bits(name, dtype):
    each, once = _both_ways(name, dtype, PINNED)
    assert once.dtype == dtype and once.shape == (N,)
    assert np.isfinite(once).all()
    assert (each == once).all()


@pytest.mark.parametrize("name", ["eq5", "wired_power"])
def test_libms_agree_to_the_last_ulps(name):
    """What :data:`PINNED` hides: on the real ``repro._scalar`` the two
    bodies that call ``exp`` / ``power`` differ from ``np`` by the libm
    alone — a couple of ulps at most, and on most inputs not at all."""
    each, once = _both_ways(name, np.float64, _scalar)
    assert np.abs(each - once).max() <= 4 * np.spacing(once.max())
    assert (each == once).mean() > 0.8


def test_sqrt_needs_no_pinning_in_float64():
    each, once = _both_ways("ewtcp_increase", np.float64, _scalar)
    assert (each == once).all()


@pytest.mark.parametrize("namespace", [_scalar, np], ids=["scalar", "np"])
def test_utilization_above_one_prices_as_one(namespace):
    """``SwitchPowerModel.port_power`` always clamped; the fluid twin it
    replaced never did."""
    model = SwitchPowerModel()
    assert namespace.minimum(1.0, 1.2) == 1.0
    assert model.port_power(namespace, 1.2) == model.port_power(namespace, 1.0)
    assert model.port_power(namespace, 1.2) == model.port_max_w
    assert model.port_power(namespace, -0.2) == model.port_idle_w
