"""The equilibrium solver's results, bit for bit, against recorded digests.

``tests/data/solver_digests.json`` holds one sha256 per solve over every
array of the :class:`~repro.fluidsim.FluidEquilibrium` it returns plus its
scalars (``converged``, ``iterations``, the three residuals), hashed the
way ``tests/test_fabric_build.network_digest`` hashes a network: name,
dtype, shape and bytes.  The cases cross four fabrics with the six
algorithms the figures solve and 1/2/4 subflows, and add solves that stop
without converging (an iteration budget, the links pinned at the price
ceiling, and the hypothesis stall ROADMAP item 4 names), so a rewrite of
the iteration loop is held to every path through it.

To regenerate (only ever against a checkout of the commit whose behaviour
is being kept)::

    PYTHONPATH=<checkout>/src python tests/test_solver_digests.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.fluidsim.equilibrium as equilibrium_mod
from repro.campaign.spec import build_topology
from repro.fluidsim import FluidNetwork, solve_fluid_equilibrium
from repro.topology import FatTree
from repro.units import ms

DIGESTS_PATH = Path(__file__).parent / "data" / "solver_digests.json"

FABRICS = ("fattree4", "fattree", "vl2", "bcube")
ALGORITHMS = ("dts", "lia", "olia", "balia", "coupled", "reno")
SUBFLOWS = (1, 2, 4)
#: Solves that end without converging, each by a different road.
STALLS = ("budget", "ceiling", "hypothesis1386")


def _topology(name: str):
    return FatTree(4, link_delay=ms(1)) if name == "fattree4" else build_topology(name)


def _stall_network(name: str) -> "tuple[FluidNetwork, int]":
    """The case's network and the solver's iteration budget for it."""
    if name == "budget":
        net = FluidNetwork.permutation(_topology("fattree4"), "lia",
                                       n_subflows=2, seed=5)
        return net, 3
    if name == "ceiling":
        from tests.test_fluidsim import tiny_topology

        net = FluidNetwork(tiny_topology(), buffer_packets=1)
        for _ in range(200):
            net.add_connection("a", "b", "reno", n_subflows=1)
        net.finalize()
        return net, equilibrium_mod._MAX_ITER
    from tests.test_fluid_equilibrium import _build_net

    return _build_net(1386, ["olia", "reno", "reno"], 2), equilibrium_mod._MAX_ITER


def solve(key: str):
    """The :class:`FluidEquilibrium` of case ``key``."""
    parts = key.split("/")
    if parts[0] == "stall":
        net, max_iter = _stall_network(parts[1])
        with mock.patch.object(equilibrium_mod, "_MAX_ITER", max_iter):
            return solve_fluid_equilibrium(net)
    fabric, algorithm, subflows = parts
    net = FluidNetwork.permutation(_topology(fabric), algorithm,
                                   n_subflows=int(subflows[1:]), seed=1)
    return solve_fluid_equilibrium(net)


def equilibrium_digest(eq) -> str:
    """sha256 over name, dtype, shape and bytes of every field."""
    h = hashlib.sha256()
    for field in dataclasses.fields(eq):
        value = getattr(eq, field.name)
        if not isinstance(value, np.ndarray):
            value = np.asarray(value)  # bool -> |b1, int -> <i8, float -> <f8
        arr = np.ascontiguousarray(value)
        h.update(f"{field.name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


CASES = ([f"{fabric}/{algorithm}/s{n}" for fabric in FABRICS
          for algorithm in ALGORITHMS for n in SUBFLOWS]
         + [f"stall/{name}" for name in STALLS])


def _recorded():
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("key", CASES)
def test_solve_matches_recorded_digest(key):
    assert equilibrium_digest(solve(key)) == _recorded()["digests"][key]


def test_digest_file_covers_exactly_the_cases():
    assert sorted(_recorded()["digests"]) == sorted(CASES)


@pytest.mark.parametrize("key", [f"stall/{name}" for name in STALLS])
def test_stall_cases_do_not_converge(key):
    assert not solve(key).converged


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests.*
    DIGESTS_PATH.write_text(json.dumps({
        "recorded_with": {"numpy": np.__version__,
                          "python": sys.version.split()[0]},
        "digests": {key: equilibrium_digest(solve(key)) for key in CASES},
    }, indent=1) + "\n")
    print(f"wrote {len(CASES)} digests to {DIGESTS_PATH}")
