"""The import contract: start-up cost follows use, in three tiers.

DESIGN.md ("Start-up cost and import tiers") states which entry point may
load what; this file holds it.  Each row of the table runs in a fresh
interpreter and reports which of numpy / ``scipy.*`` ended up in
``sys.modules`` — module sets, never timings, so the test is
deterministic.  The second half checks the PEP 562 lazy exports of
``repro``, ``repro.core`` and ``repro.net`` behave like the eager
re-exports they replaced.
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


def loaded_after(statement: str) -> set:
    """numpy / scipy / scipy.<sub> modules loaded by ``statement``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", statement + "\n" + _REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
]

FLUID_TIER = [
    "import repro.fluidsim",
    "import repro.experiments.fig15_phi",
]


@pytest.mark.parametrize("statement", STDLIB_TIER)
def test_stdlib_tier_loads_neither_numpy_nor_scipy(statement):
    assert loaded_after(statement) == set()


@pytest.mark.parametrize("statement", NUMPY_TIER)
def test_numpy_tier_loads_no_scipy(statement):
    assert loaded_after(statement) <= {"numpy"}


@pytest.mark.parametrize("statement", FLUID_TIER)
def test_fluid_tier_loads_scipy_sparse_only(statement):
    loaded = loaded_after(statement)
    assert "scipy.sparse" in loaded
    assert not loaded & {"scipy.optimize", "scipy.integrate"}


def test_solver_and_integrator_load_scipy_at_their_call_sites():
    """The two functions that use scipy still get it (and only they do)."""
    loaded = loaded_after(
        "from repro.core import constant, decomposition, integrate_model\n"
        "integrate_model(decomposition('lia'), rtt=constant([0.1]),\n"
        "                loss=constant([0.01]), x0=[10.0], duration=1.0)"
    )
    assert "scipy.integrate" in loaded


# ------------------------------------------------------------ lazy exports

LAZY_PACKAGES = ["repro", "repro.core", "repro.net"]


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
