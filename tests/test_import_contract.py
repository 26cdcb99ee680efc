"""The import contract: start-up cost follows use, in two tiers.

DESIGN.md ("Start-up cost and import tiers") states which entry point may
load what; this file holds it.  Each row of the table runs in a fresh
interpreter and reports which of numpy / ``scipy.*`` ended up in
``sys.modules`` — module sets, never timings, so the test is
deterministic.  The fluid rows *run* the tier (a stepped run, a solve, a
sharded run) and find nothing of scipy but the one extension file its
routing kernel lives in; the transport rows run the live transport (every
per-ACK controller, ``fetch --selftest``, a scraped server) and find no
numpy; the packet rows run the scalar DES (two measurement figures, a lossy
two-route transfer under Pareto bursts, ``box_stats``) and find none
either; the array rows run each array engine and a pooled campaign plus its
report, and find neither ``numpy.random`` nor OpenSSL (``hashlib``).  The
census rows check that within a tier a package loads a submodule only on
first use (no recorder, wire format, radio model or unused controller in a
packet-DES process; no process pool, result cache, telemetry writer, other
engine or other fabric in an in-process run).  The second half checks the
PEP 562 lazy exports of ``repro``, ``repro.core``, ``repro.net``,
``repro.topology``, ``repro.workloads``, ``repro.analysis``, ``repro.obs``,
``repro.energy``, ``repro.transport``, ``repro.algorithms``,
``repro.campaign`` and ``repro.fluidsim`` behave like the eager re-exports
they replaced, and that the controller registry finds each controller by
name.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tokenize
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
    "import repro.transport.server",
    "import repro.algorithms",
    "import repro.energy",
    "import repro.core.dts",
    "import repro.core.energy_price",
    "import repro.analysis",
    "import repro.workloads.permutation",
    # Specs are built, hashed and checked without numpy; the executor
    # loads it with the first run.
    "from repro.campaign import RunSpec",
    # A batch run is declared without numpy; the engine loads with its
    # first use.
    "from repro.net.batch import BatchScenario, ec2_scenario; ec2_scenario()",
    _cli("--help"),
    _cli("--version"),
    _cli("list"),
]

NUMPY_TIER = [
    _resolve_all("repro"),
    _resolve_all("repro.net"),
    _resolve_all("repro.core"),
    "import repro.topology, repro.workloads",
    pytest.param("from repro.net.batch import BatchEngine", id="import repro.net.batch"),
    "import repro.campaign",
    # Stdlib-tier since ISSUE 24 (PACKET_RUNS holds that); `<=` still passes.
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
    pytest.param("from repro.fluidsim import FluidNetwork", id="import repro.fluidsim"),
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

#: The live transport at work; each row ends with numpy still absent.
_DRIVE_CONTROLLERS = """
from repro.algorithms import algorithm_names, create_controller
from repro.transport.core import (
    PathProfile, ReceiverCore, SegmentSupply, SenderCore)

for name in algorithm_names():
    now = [0.0]
    supply = SegmentSupply(600)
    controller = create_controller(name)
    senders = [SenderCore(supply, clock=lambda: now[0], controller=controller,
                          subflow_index=i, ecn_capable=controller.ecn_capable,
                          path=PathProfile(base_rtt=0.05, switch_hops=1))
               for i in range(2)]
    controller.attach(senders)
    receivers = [ReceiverCore(subflow_index=i) for i in range(2)]
    for sender in senders:
        sender.start()
    acks = 0
    while not supply.completed:
        flights = [(s, r, s.take_emits()) for s, r in zip(senders, receivers)]
        sent = now[0]
        now[0] += 0.05 + 0.001 * (acks % 7)  # one RTT, some of it queueing
        for sender, receiver, ops in flights:
            for op in ops:
                if op.seq == 40 and not op.is_retransmit:
                    continue  # the one loss on each subflow
                ack = receiver.on_data(op.seq, sent, 1200)
                sender.on_ack(ack.ack_seq, sack_seq=ack.sack_seq,
                              echo_time=ack.echo_time)
                acks += 1
            sender.on_tick()
    assert acks >= 600 and all(s.loss_events for s in senders), name
"""
_SCRAPED_SERVER = """
import asyncio, json
from repro.transport.client import fetch
from repro.transport.server import TransportServer

async def get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\\r\\n\\r\\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), timeout=10)
    writer.close()
    head, _, body = raw.partition(b"\\r\\n\\r\\n")
    assert head.startswith(b"HTTP/1.1 200"), (path, head)
    return body

async def main():
    server = TransportServer(n_ports=2, metrics_port=0, record_interval=0.05)
    ports = await server.start()
    try:
        result = await fetch("127.0.0.1", ports, controller="dts",
                             total_bytes=65536, timeout=30.0)
        assert result.bytes_received >= 65536
        bodies = {path: await get(server.metrics_port, path)
                  for path in ("/metrics", "/metrics.prom", "/manifest",
                               "/dashboard", "/series", "/events", "/healthz")}
        assert all(bodies.values()), bodies
        assert json.loads(bodies["/manifest"])["numpy_version"]
    finally:
        await server.stop()

asyncio.run(main())
"""


def _selftest(controller: str):
    return pytest.param(
        "import repro.cli\n"
        "for tail in ([], ['--json', '-']):\n"
        "    assert repro.cli.main(['fetch', '--selftest', '--bytes', '262144',\n"
        f"        '--loss', '0.02', '--controller', {controller!r}] + tail) == 0",
        id=f"fetch --selftest --controller {controller}")


TRANSPORT_RUNS = [
    pytest.param(_DRIVE_CONTROLLERS, id="every controller, core to core"),
    *(_selftest(name) for name in ("dts", "dts-ext", "lia", "olia")),
    pytest.param(_SCRAPED_SERVER, id="served fetch, every route scraped"),
]


#: The scalar packet DES at work: seeded loss and burst draws come from the
#: stdlib generator, the box summary from stdlib arithmetic.
_LOSSY_TRANSFER = """
from repro.analysis import box_stats
from repro.net import Network
from repro.units import mbps, ms
from repro.workloads import ParetoBurstSource

net = Network(seed=24)
a, b = net.add_host("a"), net.add_host("b")
routes = []
for r in range(2):
    s = net.add_switch(f"s{r}")
    net.link(a, s, rate_bps=mbps(50), delay=ms(2))
    net.link(s, b, rate_bps=mbps(20), delay=ms(8 + 4 * r), loss_rate=0.01)
    routes.append(net.route([a, s, b]))
burst = ParetoBurstSource(net.sim, routes[0], rate_bps=mbps(10),
                          mean_interval=0.05, mean_duration=0.02)
burst.start()
conn = net.connection(routes, "lia", total_bytes=1_000_000)
conn.start()
net.run_until_complete([conn], timeout=600)
assert conn.completed and burst.bursts_generated > 2
assert sum(sf.loss_events for sf in conn.subflows) > 0
stats = box_stats(sf.srtt for sf in conn.subflows)
assert stats.n == 2 and stats.minimum <= stats.median <= stats.maximum
"""
PACKET_RUNS = [
    _cli("fig01"),
    _cli("fig02"),
    pytest.param(_LOSSY_TRANSFER, id="lossy two-route transfer, Pareto bursts, box_stats"),
]


#: The array engines at work: their uniforms, shuffles and path picks come
#: from the stdlib generator, spec hashes from the builtin SHA-256.
_ARRAY_SPEC = "topology='bcube', n_subflows=2, duration=0.2, dt=0.01"
_CAMPAIGN_AND_REPORT = """
import contextlib, io, tempfile
from pathlib import Path
import repro.cli
cache = Path(tempfile.mkdtemp())
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(['campaign', 'fig12', '--jobs', '2', '--subflows', '1',
                           '--seeds', '1', '--duration', '0.2', '--dt', '0.01',
                           '--cache-dir', str(cache)]) == 0
    assert repro.cli.main(['obs', 'report', str(cache / 'campaign.log.jsonl')]) == 0
"""
_STEPPED_FLUID_RUN = (
    "from repro.campaign import RunSpec, execute_run\n"
    f"assert execute_run(RunSpec(engine='fluid', {_ARRAY_SPEC}))"
    "['metrics']['loss_events'] >= 0")
_PACKET_BATCH_RUN = (
    "from repro.campaign import RunSpec, execute_run\n"
    "assert execute_run(RunSpec(engine='packet-batch', topology='ec2',\n"
    "    algorithm='dts', n_subflows=2, duration=0.2, dt=0.002,\n"
    "    params={'n_hosts': 8, 'loss_rate': 1e-2}))['metrics']")
ARRAY_RUNS = [
    pytest.param(_STEPPED_FLUID_RUN, id="stepped fluid execute_run"),
    pytest.param(
        "from repro.campaign import RunSpec, execute_run\n"
        f"assert execute_run(RunSpec(engine='fluid-equilibrium', {_ARRAY_SPEC}))"
        "['metrics']['steps_taken'] == 0",
        id="fluid-equilibrium execute_run"),
    pytest.param(_PACKET_BATCH_RUN, id="packet-batch execute_run"),
    pytest.param(_CAMPAIGN_AND_REPORT, id="campaign fig12 --jobs 2, obs report"),
]
#: ``numpy.random`` pulls ``secrets`` -> ``hmac`` -> ``hashlib``, which maps
#: OpenSSL's libcrypto through ``_hashlib``.
_NOT_IN_ARRAY_TIER = ("numpy.random", "secrets", "hashlib", "_hashlib")


@pytest.mark.parametrize("statement", PACKET_RUNS)
def test_packet_tier_runs_without_numpy(statement):
    run_fresh(statement + "\nimport sys\nassert 'numpy' not in sys.modules\n")


@pytest.mark.parametrize("statement", ARRAY_RUNS)
def test_array_tier_runs_without_numpy_random_or_openssl(statement):
    run_fresh(statement + "\nimport sys\n"
              f"loaded = [m for m in {_NOT_IN_ARRAY_TIER!r} if m in sys.modules]\n"
              "assert not loaded, loaded\n")


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


@pytest.mark.parametrize("statement", TRANSPORT_RUNS)
def test_transport_tier_runs_without_numpy(statement):
    run_fresh(statement + "\nimport sys\nassert 'numpy' not in sys.modules\n")


def test_serve_process_loads_no_des_module():
    """Of ``repro.net`` a transport server keeps the package and the
    stdlib sampler base class ``repro.energy.accounting`` subclasses."""
    assert modules_after(
        "import repro.transport.server", "repro.net",
    ) == {"repro.net", "repro.net.monitor"}


def _code_names(path) -> set:
    """Every identifier in the file's code (not its strings or comments)."""
    with open(path, "rb") as handle:
        return {token.string for token in tokenize.tokenize(handle.readline)
                if token.type == tokenize.NAME}


def test_shared_rules_name_a_namespace_never_numpy():
    """Each printed formula has one body that takes its array namespace
    as an argument, so no stdlib-tier file names numpy in code, and the
    batch engine's vector rounds call the controllers' own rules."""
    import repro._scalar
    import repro.algorithms
    import repro.analysis
    import repro.core.dts
    import repro.core.energy_price
    import repro.energy
    import repro.net
    import repro.net.batch.model as model
    import repro.transport
    from repro.net.batch.engine import BatchEngine

    sources = [Path(repro._scalar.__file__), Path(repro.core.dts.__file__),
               Path(repro.core.energy_price.__file__)]
    # repro.net's top level is the scalar DES; net/batch is the array engine.
    for package in (repro.algorithms, repro.energy, repro.transport, repro.net):
        sources += Path(package.__file__).parent.glob("*.py")
    sources.append(Path(repro.analysis.__file__).with_name("stats.py"))
    assert Path(repro.algorithms.lia.__file__) in sources
    assert {"numpy", "np"} <= _code_names(model.__file__)
    for source in sources:
        assert not _code_names(source) & {"numpy", "np"}, source.name

    rules = {"dts_factor": repro.core.dts.dts_factor,
             "dts_increase": repro.algorithms.dts.dts_increase,
             "lia_increase": repro.algorithms.lia.lia_increase}
    called = set(BatchEngine._vector_group.__code__.co_names)
    for name, rule in rules.items():
        assert name in called
        assert BatchEngine._vector_group.__globals__[name] is rule


@pytest.mark.parametrize("first", ["", "import numpy"],
                         ids=["numpy absent", "numpy loaded"])
def test_manifest_reads_the_numpy_version_without_importing_numpy(first):
    """``GET /manifest`` captures inside the serving event loop: the
    version comes from the loaded module or the installed metadata,
    the same string either way, and capturing imports nothing of numpy."""
    run_fresh(
        f"{first}\n"
        "import sys\n"
        "from importlib.metadata import version\n"
        "from repro.obs import RunManifest\n"
        "before = set(sys.modules)\n"
        "assert RunManifest.capture().numpy_version == version('numpy')\n"
        "assert 'numpy' not in set(sys.modules) - before\n"
        "import numpy\n"
        "assert RunManifest.capture().numpy_version == numpy.__version__\n")


def test_fluid_tier_loads_no_packet_engine():
    """Of ``repro.net`` a fluid process keeps one leaf (the stdlib
    generator every engine draws from), not the packet engine."""
    assert modules_after(
        "from repro.fluidsim import FluidNetwork", "repro.net", "repro.transport",
    ) == {"repro.net", "repro.net.rand", "repro.net._ziggurat"}


#: Loaded by no in-process run: the process pool, the result cache and the
#: telemetry writer.
_NOT_INLINE = ("concurrent.futures", "multiprocessing",
               "repro.campaign.cache", "repro.campaign.telemetry")


@pytest.mark.parametrize("statement, absent", [
    pytest.param(_PACKET_BATCH_RUN, _NOT_INLINE + ("repro.fluidsim",),
                 id="packet-batch execute_run: no pool, no fluid tier"),
    pytest.param(_STEPPED_FLUID_RUN, _NOT_INLINE + (
        "repro.fluidsim.equilibrium", "repro.fluidsim.sharding",
        "repro.topology.fattree", "repro.topology.vl2"),
                 id="BCube fluid execute_run: no solver, shard pool or other fabric"),
])
def test_an_inline_run_loads_only_its_engine(statement, absent):
    """One spec run in-process loads the spec, the runner and that
    engine with its one fabric, and nothing a pooled campaign adds."""
    assert modules_after(statement, *absent) == set()


_DES_FIGURES = "from repro.experiments import fig06_shared_bottleneck, fig17_wireless"
#: Loaded by no packet-DES figure: the recorders and the manifest (with
#: ``subprocess`` and ``platform``), the wire format, the radio and switch
#: models.
_NOT_IN_THE_DES = (
    "repro.obs.flight", "repro.obs.manifest", "repro.obs.timeseries",
    "repro.transport.wire", "repro.energy.nic", "repro.energy.mobile",
    "repro.energy.switch", "subprocess", "platform",
)
_CONTROLLER_MODULES = ("repro.algorithms.balia", "repro.algorithms.coupled",
                       "repro.algorithms.dctcp", "repro.algorithms.dts",
                       "repro.algorithms.dwc", "repro.algorithms.ecmtcp",
                       "repro.algorithms.ewtcp", "repro.algorithms.lia",
                       "repro.algorithms.olia", "repro.algorithms.reno",
                       "repro.algorithms.wvegas")


@pytest.fixture(scope="module")
def des_figures_modules() -> set:
    return modules_after(_DES_FIGURES, *_NOT_IN_THE_DES, *_CONTROLLER_MODULES)


@pytest.mark.parametrize("module", _NOT_IN_THE_DES + _CONTROLLER_MODULES)
def test_des_figures_import_loads_no_unused_module(module, des_figures_modules):
    assert module not in des_figures_modules


def test_des_figure_run_loads_only_the_controllers_it_constructs():
    """Fig. 6 runs LIA, OLIA, Balia and ecMTCP beside single-path Reno;
    no other controller module is loaded, and neither are the recorders
    or the wire format."""
    loaded = modules_after(
        "from repro.experiments import fig06_shared_bottleneck as fig06\n"
        "assert fig06.run(user_counts=[2], transfer_bytes=262144).cells",
        "repro.algorithms", *_NOT_IN_THE_DES)
    assert loaded == {"repro.algorithms", "repro.algorithms.base",
                      "repro.algorithms.reno", "repro.algorithms.lia",
                      "repro.algorithms.olia", "repro.algorithms.balia",
                      "repro.algorithms.ecmtcp"}


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


def test_solver_and_integrator_load_no_scipy():
    """The per-connection solver, the model integrator and the
    responsiveness metric run on numpy alone: no ``scipy*`` module."""
    assert modules_after(
        "import numpy as np\n"
        "from repro.core import (constant, decomposition, integrate_model,\n"
        "                        responsiveness, solve_equilibrium)\n"
        "olia, rtt, loss = decomposition('olia'), [0.05, 0.07], [0.01, 0.02]\n"
        "integrate_model(olia, rtt=constant(rtt), loss=constant(loss),\n"
        "                x0=[10.0, 10.0], duration=1.0)\n"
        "responsiveness(olia, rtt=rtt, loss=loss, x0=[1.0, 1.0], duration=5.0)\n"
        "solve_equilibrium(olia, np.array(rtt), np.array(loss))",
        "scipy",
    ) == set()


# ------------------------------------------------------------ lazy exports

#: Each lazy package with one of its lazily exported names.
LAZY_NAMES = {
    "repro": "Network",
    "repro.core": "phi",
    "repro.net": "Network",
    "repro.net.batch": "BatchEngine",
    "repro.topology": "BCube",
    "repro.workloads": "ParetoBurstSource",
    "repro.analysis": "box_stats",
    "repro.obs": "RunManifest",
    "repro.energy": "nexus5",
    "repro.transport": "decode",
    "repro.algorithms": "LiaController",
    "repro.campaign": "execute_run",
    "repro.fluidsim": "FluidSimulation",
}
LAZY_PACKAGES = list(LAZY_NAMES)


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


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_resolved_name_is_cached_in_the_package_namespace(package, monkeypatch):
    module = importlib.import_module(package)
    name = LAZY_NAMES[package]
    monkeypatch.delitem(vars(module), name, raising=False)
    first = getattr(module, name)
    assert vars(module)[name] is first

    def no_reentry(name):  # pragma: no cover - called only on failure
        raise AssertionError(f"__getattr__ re-entered for {name!r}")

    monkeypatch.setattr(module, "__getattr__", no_reentry)
    assert getattr(module, name) is first


#: Every name and alias :func:`create_controller` accepts, with the class
#: it builds.
_CONTROLLER_CLASSES = {
    "reno": "RenoController", "tcp": "RenoController", "newreno": "RenoController",
    "ewtcp": "EwtcpController", "coupled": "CoupledController",
    "lia": "LiaController", "mptcp": "LiaController", "olia": "OliaController",
    "balia": "BaliaController", "ecmtcp": "EcmtcpController",
    "wvegas": "WvegasController", "dctcp": "DctcpController",
    "dts": "DtsController", "dts-ext": "ExtendedDtsController",
    "dts_ext": "ExtendedDtsController", "edts": "ExtendedDtsController",
    "extended-dts": "ExtendedDtsController", "dwc": "DwcController",
}


def test_create_controller_finds_each_class_by_name():
    import repro.algorithms as cc
    from repro.errors import AlgorithmError

    assert set(cc.algorithm_names()) <= set(_CONTROLLER_CLASSES)
    for name, cls in _CONTROLLER_CLASSES.items():
        for spelling in (name, f" {name.upper()} "):
            assert type(cc.create_controller(spelling)) is getattr(cc, cls), spelling
    assert cc.create_controller("dts-ext", kappa=1e-4).price_config.kappa == 1e-4
    with pytest.raises(AlgorithmError) as info:
        cc.create_controller("Cubic")
    assert str(info.value) == (
        "unknown algorithm 'Cubic'; known: balia, coupled, dctcp, dts, dts-ext, "
        "dwc, ecmtcp, ewtcp, lia, olia, reno, wvegas")
