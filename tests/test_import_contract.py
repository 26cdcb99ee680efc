"""The import contract: start-up cost follows use, in two tiers.

DESIGN.md ("Start-up cost and import tiers") states which entry point may
load what; this file holds it.  Each row of the table runs in a fresh
interpreter and reports which of numpy / ``scipy.*`` ended up in
``sys.modules`` — module sets, never timings, so the test is
deterministic.  The fluid rows *run* the tier (a stepped run, a solve, a
sharded run) and find nothing of scipy but the one extension file its
routing kernel lives in.  The second half checks the PEP 562 lazy exports
of ``repro``, ``repro.core``, ``repro.net``, ``repro.topology`` and
``repro.workloads`` behave like the eager re-exports they replaced.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or "
    "m == 'scipy' or (m.startswith('scipy.') and m.count('.') == 1 "
    "and not m.startswith('scipy._')))))\n"
)


def _resolve_all(package: str):
    return pytest.param(
        f"import {package} as p; [getattr(p, n) for n in p.__all__]",
        id=f"every name in {package}.__all__",
    )


def _cli(flag: str):
    return pytest.param(
        "import repro.cli\n"
        f"try:\n    assert repro.cli.main([{flag!r}]) == 0\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code",
        id=f"python -m repro {flag}",
    )


def run_fresh(code: str) -> str:
    """Standard output of ``code``, run to a clean exit in a fresh
    interpreter on this source tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> set:
    """numpy / scipy / scipy.<sub> modules loaded by ``statement``."""
    return set(json.loads(run_fresh(statement + "\n" + _REPORT).splitlines()[-1]))


def modules_after(statement: str, *prefixes: str) -> set:
    """Every loaded module that is, or lives under, one of ``prefixes``."""
    report = (
        "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if any("
        f"m == p or m.startswith(p + '.') for p in {prefixes!r})]))\n")
    return set(json.loads(run_fresh(statement + "\n" + report).splitlines()[-1]))


STDLIB_TIER = [
    "import repro",
    "import repro.errors, repro.units",
    "import repro.obs",
    "import repro.transport",
    "import repro.transport.wire",
    "import repro.transport.core",
    "import repro.transport.aio",
    "import repro.transport.client",
    _cli("--help"),
    _cli("--version"),
    _cli("list"),
]

NUMPY_TIER = [
    _resolve_all("repro"),
    _resolve_all("repro.net"),
    _resolve_all("repro.core"),
    "import repro.algorithms",
    "import repro.energy, repro.topology, repro.workloads, repro.analysis",
    "import repro.net.batch",
    "import repro.campaign",
    "import repro.transport.server",
    "import repro.experiments.fig06_shared_bottleneck",
    "import repro.experiments.fig17_wireless",
    # Figs. 12-14 only build RunSpecs; the executor loads the engine.
    "import repro.experiments.fig12_14_subflows",
    "import repro.fluidsim",
    "import repro.experiments.fig15_phi",
]

#: The fluid tier at work, not just imported.
_FAST_SPEC = "topology='bcube', n_subflows=2, duration=0.2, dt=0.01"
FLUID_RUNS = [
    pytest.param("import repro.fluidsim", id="import repro.fluidsim"),
    pytest.param(
        "from repro.campaign import RunSpec, execute_run\n"
        f"assert execute_run(RunSpec(engine='fluid', {_FAST_SPEC}))"
        "['metrics']['steps_taken'] == 20",
        id="stepped execute_run"),
    pytest.param(
        "from repro.campaign import build_topology\n"
        "from repro.fluidsim import FluidNetwork, solve_fluid_equilibrium\n"
        "net = FluidNetwork.permutation(build_topology('bcube'), 'lia',\n"
        "                               n_subflows=2, seed=1)\n"
        "assert solve_fluid_equilibrium(net).iterations > 10",
        id="solve_fluid_equilibrium"),
    pytest.param(
        "from repro.fluidsim import run_sharded\n"
        "assert run_sharded('bcube', n_shards=2, jobs=1, duration=0.2,\n"
        "                   dt=0.01).steps_taken == 40",
        id="run_sharded(jobs=1)"),
    pytest.param("import repro.experiments.fig15_phi",
                 id="import repro.experiments.fig15_phi"),
]
KERNEL_MODULE = "scipy.sparse._sparsetools"


@pytest.mark.parametrize("statement", STDLIB_TIER)
def test_stdlib_tier_loads_neither_numpy_nor_scipy(statement):
    assert loaded_after(statement) == set()


@pytest.mark.parametrize("statement", NUMPY_TIER)
def test_numpy_tier_loads_no_scipy(statement):
    assert loaded_after(statement) <= {"numpy"}


@pytest.mark.parametrize("statement", FLUID_RUNS)
def test_fluid_tier_runs_on_the_kernel_file_alone(statement):
    """Neither ``scipy`` nor ``scipy.sparse`` is in ``sys.modules``: the
    only trace of scipy is the extension module the kernel was read from."""
    assert modules_after(statement, "scipy") == {KERNEL_MODULE}


def test_fluid_tier_loads_no_packet_engine():
    """Of ``repro.net`` a fluid process keeps two leaf helpers (the RNG
    block reader the step loop draws from, the sampler base class
    ``repro.energy`` subclasses); neither imports the packet engine."""
    assert modules_after(
        "import repro.fluidsim", "repro.net", "repro.transport",
    ) == {"repro.net", "repro.net.rand", "repro.net.monitor"}


@pytest.mark.parametrize("first, then", [
    ("import repro.fluidsim.csr", "import scipy.sparse, scipy.optimize"),
    ("import scipy.sparse, scipy.optimize", "import repro.fluidsim.csr"),
], ids=["kernel then scipy", "scipy then kernel"])
def test_kernel_and_scipy_share_one_module(first, then):
    """Whichever loads first, scipy and the fluid tier hold the same
    ``_sparsetools`` module object, and scipy still works on it."""
    run_fresh(
        f"{first}\n{then}\n"
        "import sys, numpy as np, scipy.sparse, repro.fluidsim.csr as csr\n"
        "from scipy.sparse import _sparsetools\n"
        f"assert sys.modules[{KERNEL_MODULE!r}] is _sparsetools\n"
        "assert _sparsetools.csr_matvec is csr.csr_matvec\n"
        "m = scipy.sparse.random(9, 7, 0.4, format='csr', random_state=1)\n"
        "assert (m.T.tocsr() @ np.ones(9)).shape == (7,)\n")


def test_solver_and_integrator_load_scipy_at_their_call_sites():
    """The two functions that use scipy still get it (and only they do)."""
    loaded = loaded_after(
        "from repro.core import constant, decomposition, integrate_model\n"
        "integrate_model(decomposition('lia'), rtt=constant([0.1]),\n"
        "                loss=constant([0.01]), x0=[10.0], duration=1.0)"
    )
    assert "scipy.integrate" in loaded


# ------------------------------------------------------------ lazy exports

LAZY_PACKAGES = ["repro", "repro.core", "repro.net", "repro.topology",
                 "repro.workloads"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None
    assert set(module.__all__) <= set(dir(module))


def test_experiments_all_names_import_by_path():
    import repro.experiments

    for name in repro.experiments.__all__:
        importlib.import_module(f"repro.experiments.{name}")


@pytest.mark.parametrize("package", LAZY_PACKAGES + ["repro.experiments"])
def test_star_import(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_misspelt_attribute_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'Netwrok'"):
        module.Netwrok
    with pytest.raises(ImportError):
        exec(f"from {package} import Netwrok")


def test_resolved_name_is_cached_in_the_package_namespace(monkeypatch):
    import repro.core

    vars(repro.core).pop("phi", None)
    first = repro.core.phi
    assert vars(repro.core)["phi"] is first

    def no_reentry(name):  # pragma: no cover - called only on failure
        raise AssertionError(f"__getattr__ re-entered for {name!r}")

    monkeypatch.setattr(repro.core, "__getattr__", no_reentry)
    assert repro.core.phi is first
