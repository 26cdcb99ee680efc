"""Declarative run/campaign specifications with stable content hashes.

A :class:`RunSpec` is the complete, serializable description of one
simulation run: every quantity the engine needs (algorithm, topology,
workload, seed, integration parameters) and nothing it does not.  Two
specs with the same fields hash identically in any process on any
machine, which is what makes the on-disk result cache content-addressed.

The hash is a SHA-256 over a canonical JSON encoding (sorted keys, no
whitespace) prefixed with :data:`SCHEMA_VERSION`, so bumping the schema
version — e.g. after an engine change that alters the numbers — busts
every cached result at once.  It is the interpreter's builtin SHA-256, not
``hashlib``'s: ``import hashlib`` maps OpenSSL's libcrypto (~3.5 MiB
resident) into every campaign process for a few hundred bytes per spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import AlgorithmError, ConfigurationError
from repro.units import ms, whole_steps

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

#: Bump whenever engine or payload changes invalidate previously cached
#: results.  Participates in every spec hash and is stored in each cache
#: entry, so old entries become misses rather than stale hits.
#: v2: payloads carry an "obs" metrics-registry snapshot and engine
#: counters are derived from it.
#: v3: the fluid engine clamps the trailing energy-integration window
#: (runs whose step count is not a multiple of the energy sampling cadence
#: previously overcounted energy), so cached energies may differ.
#: v4: the fluid adapters call the per-ACK controllers' increase rules, so
#: ewtcp / olia / balia / dts fluid results moved in the last ulp.  Bumped
#: with ``tests/data/run_digests.json``, which records it.
SCHEMA_VERSION = 4

#: Topologies a RunSpec can name: the paper's datacenter fabrics (fluid
#: engines), the city-scale fat-tree presets, plus the EC2-style
#: independent-ENI scenario (packet engine).
KNOWN_TOPOLOGIES = ("bcube", "fattree", "vl2", "fattree24", "fattree32", "ec2")

#: Topologies each engine accepts.
_FLUID_TOPOLOGIES = ("bcube", "fattree", "vl2", "fattree24", "fattree32")
ENGINE_TOPOLOGIES = {
    "fluid": _FLUID_TOPOLOGIES,
    "fluid-equilibrium": _FLUID_TOPOLOGIES,
    "packet-batch": ("ec2",),
}

#: Workloads a RunSpec can name.
KNOWN_WORKLOADS = ("permutation",)

#: Engines a RunSpec can name.  ``fluid`` runs the datacenter sweeps
#: (``params={"shards": S}`` steps S independent fabric replicas and
#: merges them); ``fluid-equilibrium`` solves the same networks' fluid
#: fixed point directly (falling back to time-stepping for algorithms
#: the solver does not support); ``packet-batch`` is the vectorized
#: struct-of-arrays packet engine over the EC2 scenario of
#: :mod:`repro.net.batch`.  The engine name is part of the content
#: hash, so new engines never collide with cached fluid runs.
KNOWN_ENGINES = ("fluid", "fluid-equilibrium", "packet-batch")


#: ``((name, link_delay), fabric)`` of the last :func:`build_topology` call.
_last_fabric: Optional[tuple] = None


def build_topology(name: str, link_delay: float = ms(1)):
    """The canonical topology instance for a spec's name.

    This is the single source of truth for what ``topology="bcube"``
    etc. mean — the experiment modules delegate here so a cached result
    and a freshly simulated one are guaranteed to describe the same
    network.  The fabric is sealed and shared: the same arguments return
    the same instance while they are the last ones asked for, so a sweep's
    consecutive runs build their fabric once.
    """
    global _last_fabric
    key = (name, link_delay)
    if _last_fabric is None or _last_fabric[0] != key:
        _last_fabric = None  # drop the old fabric before building the next
        _last_fabric = key, _build_topology(name, link_delay).seal()
    return _last_fabric[1]


def _build_topology(name: str, link_delay: float):
    """Build the named fabric, importing only its own module."""
    if name == "bcube":
        from repro.topology.bcube import BCube

        return BCube(4, 2, link_delay=link_delay)
    if name == "fattree":
        from repro.topology.fattree import FatTree

        return FatTree(8, link_delay=link_delay)
    if name == "fattree24":
        from repro.topology.fattree import fattree24

        return fattree24(link_delay=link_delay)
    if name == "fattree32":
        from repro.topology.fattree import fattree32

        return fattree32(link_delay=link_delay)
    if name == "vl2":
        from repro.topology.vl2 import Vl2

        return Vl2(link_delay=link_delay)
    raise ConfigurationError(
        f"cannot build topology {name!r} (can build: {', '.join(_FLUID_TOPOLOGIES)})")


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully determined by its fields."""

    algorithm: str = "lia"
    topology: str = "bcube"
    workload: str = "permutation"
    n_subflows: int = 1
    seed: int = 1
    duration: float = 30.0
    dt: float = 0.004
    link_delay: float = ms(1)
    engine: str = "fluid"
    #: Free-form engine parameters (must be JSON-serializable): the few
    #: engine knobs a caller sets, such as ``dtype`` or ``shards``.  The
    #: executor names the keys each engine accepts.
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.engine not in KNOWN_ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r} (known: {', '.join(KNOWN_ENGINES)})")
        if self.topology not in KNOWN_TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r} "
                f"(known: {', '.join(KNOWN_TOPOLOGIES)})")
        allowed = ENGINE_TOPOLOGIES[self.engine]
        if self.topology not in allowed:
            raise ConfigurationError(
                f"engine {self.engine!r} cannot run topology {self.topology!r} "
                f"(accepted: {', '.join(allowed)})")
        if self.workload not in KNOWN_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r} "
                f"(known: {', '.join(KNOWN_WORKLOADS)})")
        # Checked here, not in the worker: a name no engine can run would
        # otherwise be pickled to the pool, fail there and be retried.
        # The field keeps its spelling, so valid specs hash as before.
        from repro.algorithms import PACKET_ONLY, resolve_algorithm

        try:
            canonical = resolve_algorithm(self.algorithm)
        except AlgorithmError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.engine != "packet-batch" and canonical in PACKET_ONLY:
            raise ConfigurationError(
                f"engine {self.engine!r} cannot run algorithm {canonical!r} "
                "(it has no fluid form)")
        if self.n_subflows < 1:
            raise ConfigurationError(f"n_subflows must be >= 1, got {self.n_subflows}")
        for name in ("duration", "dt", "link_delay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}")
        if self.engine in ("fluid", "fluid-equilibrium"):
            whole_steps(self.duration, self.dt)  # the stepper's clock

    # -------------------------------------------------------- serialization

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for ``json.dumps``."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_json_dict`; rejects unknown keys."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**data)

    def canonical_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace, no NaN."""
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def content_hash(self) -> str:
        """Stable hex digest identifying this run (includes the schema
        version, so engine-breaking changes bust the cache)."""
        body = f"repro.campaign.runspec:{SCHEMA_VERSION}:{self.canonical_json()}"
        return sha256(body.encode("utf-8")).hexdigest()

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (dataclasses.replace wrapper)."""
        data = self.to_json_dict()
        data.update(changes)
        return RunSpec.from_json_dict(data)


@dataclass
class CampaignSpec:
    """A named, ordered collection of runs."""

    name: str
    runs: List[RunSpec] = field(default_factory=list)

    def content_hash(self) -> str:
        """Digest over the ordered run hashes (and the campaign name)."""
        h = sha256(f"repro.campaign.campaign:{self.name}:".encode("utf-8"))
        for run in self.runs:
            h.update(run.content_hash().encode("ascii"))
        return h.hexdigest()

    def to_json_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "runs": [r.to_json_dict() for r in self.runs]}

    def __len__(self) -> int:
        return len(self.runs)


# ----------------------------------------------------------------- builders

def subflow_sweep_campaign(
    topologies: Sequence[str],
    *,
    subflow_counts: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (1, 2),
    algorithm: str = "lia",
    duration: float = 30.0,
    dt: float = 0.004,
    link_delay: float = ms(1),
    engine: str = "fluid",
    params: Optional[Dict[str, Any]] = None,
    name: Optional[str] = None,
) -> CampaignSpec:
    """The Figs. 12-14 shape: subflow counts x seeds per topology.

    ``engine`` selects between time-stepped (``"fluid"``) and direct
    equilibrium (``"fluid-equilibrium"``) runs; ``params`` passes
    engine knobs (e.g. ``{"shards": 4, "dtype": "float32"}``) into
    every run.
    """
    runs = [
        RunSpec(algorithm=algorithm, topology=topo, n_subflows=nsub, seed=seed,
                duration=duration, dt=dt, link_delay=link_delay,
                engine=engine, params=dict(params) if params else {})
        for topo in topologies
        for nsub in subflow_counts
        for seed in seeds
    ]
    return CampaignSpec(name=name or f"sweep-{'-'.join(topologies)}", runs=runs)


def ec2_sweep_campaign(
    *,
    subflow_counts: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (1, 2),
    algorithm: str = "dts",
    n_hosts: int = 40,
    loss_rate: float = 1e-3,
    duration: float = 1.0,
    tick: float = 2e-3,
    name: Optional[str] = None,
) -> CampaignSpec:
    """The Fig. 10 shape on the packet engine: EC2-style hosts behind
    private ENI bottlenecks, swept over subflow counts and seeds."""
    runs = [
        RunSpec(algorithm=algorithm, topology="ec2", workload="permutation",
                n_subflows=nsub, seed=seed, duration=duration, dt=tick,
                engine="packet-batch",
                params={"n_hosts": n_hosts, "loss_rate": loss_rate})
        for nsub in subflow_counts
        for seed in seeds
    ]
    return CampaignSpec(name=name or "ec2-packet-batch", runs=runs)


#: Figure id -> topology for the campaignable (fluid-sweep) figures.
FIGURE_TOPOLOGIES = {"fig12": "bcube", "fig13": "fattree", "fig14": "vl2"}


def figure_campaign(figures: Sequence[str], **overrides: Any) -> CampaignSpec:
    """A campaign reproducing one or more of Figs. 12-14 with the same
    defaults as the serial ``python -m repro figNN`` path."""
    unknown = [f for f in figures if f not in FIGURE_TOPOLOGIES]
    if unknown:
        raise ConfigurationError(
            f"figure(s) {', '.join(unknown)} cannot run as a campaign "
            f"(campaignable: {', '.join(sorted(FIGURE_TOPOLOGIES))})")
    topologies = [FIGURE_TOPOLOGIES[f] for f in figures]
    name = overrides.pop("name", None) or "-".join(figures)
    return subflow_sweep_campaign(topologies, name=name, **overrides)
