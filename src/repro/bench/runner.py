"""Benchmark case registry and runner.

A :class:`BenchCase` is a named, registered measurement — the unit the
whole subsystem revolves around.  Cases declare which suites they belong
to; the runner executes a suite with warmup iterations, N timed repeats
under a pinned seed, an ambient :mod:`repro.obs` session per case (so
the engines' own counters land in the results), and wraps everything in
:class:`~repro.obs.manifest.RunManifest` provenance.

Registration is declarative::

    from repro.bench import runner

    @runner.register("engine.packet_transfer", suites=("tier1", "engine"),
                     description="one 4 MB TCP transfer on the event sim")
    def _case(ctx):
        events = packet_transfer()
        assert events > 10_000

Case functions receive a :class:`BenchContext` (fresh temp dir, pinned
seed, repeat index) and their wall time is measured around the call; the
return value is ignored.  Cases that open their own ``obs.session``
(e.g. tracing-overhead benchmarks) declare ``manages_session=True`` and
the runner stays out of their way.

``discover()`` imports :mod:`repro.bench.cases`, where the built-in
engine/campaign/obs cases live; ``benchmarks/bench_*.py`` wrap the same
case bodies for pytest-benchmark use.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.bench import results as _results
from repro.bench.profile import SamplingProfiler, capture_cprofile
from repro.obs.tracing import MONOTONIC_CLOCK

__all__ = ["BenchCase", "BenchContext", "all_cases", "discover",
           "register", "run_suite", "select_cases", "suite_names"]

#: Default timed repeats / warmup iterations for a suite run.
DEFAULT_REPEATS = 3
DEFAULT_WARMUP = 1
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class BenchCase:
    """One registered measurement."""

    name: str
    fn: Callable[["BenchContext"], Any]
    suites: Tuple[str, ...] = ("tier1",)
    description: str = ""
    #: True when the case opens its own obs session (the runner must not
    #: nest another); such cases contribute no metrics snapshot.
    manages_session: bool = False
    #: Optional untimed preparation run before every invocation, outside
    #: the obs session and the timed region (e.g. warming a result cache
    #: in ``ctx.tmp_path`` so ``fn`` measures the replay alone).
    setup: Optional[Callable[["BenchContext"], Any]] = None


@dataclass
class BenchContext:
    """Per-invocation context handed to every case function."""

    #: Fresh, empty directory, discarded after the invocation.
    tmp_path: Path
    #: The suite's pinned seed; also installed into ``random`` before
    #: each invocation.
    seed: int
    #: 0-based timed-repeat index; warmup iterations are negative.
    repeat: int


_REGISTRY: Dict[str, BenchCase] = {}
_discovered = False


def register(name: str, *, suites: Sequence[str] = ("tier1",),
             description: str = "", manages_session: bool = False,
             setup: Optional[Callable[[BenchContext], Any]] = None):
    """Decorator registering ``fn`` as the case called ``name``."""

    def deco(fn: Callable[[BenchContext], Any]):
        if name in _REGISTRY:
            raise ValueError(f"bench case {name!r} already registered")
        _REGISTRY[name] = BenchCase(name=name, fn=fn, suites=tuple(suites),
                                    description=description,
                                    manages_session=manages_session,
                                    setup=setup)
        return fn

    return deco


def discover() -> None:
    """Import the built-in case modules (idempotent)."""
    global _discovered
    if not _discovered:
        _discovered = True
        import repro.bench.cases  # noqa: F401  (imports register cases)


def all_cases() -> List[BenchCase]:
    """Every registered case, name-sorted (after discovery)."""
    discover()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def suite_names() -> List[str]:
    """Every suite any case claims, sorted."""
    return sorted({s for case in all_cases() for s in case.suites})


def select_cases(suite: Optional[str] = None,
                 patterns: Optional[Sequence[str]] = None) -> List[BenchCase]:
    """Cases in ``suite`` (all suites when None), filtered by substring
    ``patterns`` (any-match; None keeps everything)."""
    cases = [c for c in all_cases()
             if suite is None or suite in c.suites]
    if patterns:
        cases = [c for c in cases if any(p in c.name for p in patterns)]
    return cases


# ------------------------------------------------------------------- running

def _invoke(case: BenchCase, seed: int, repeat: int,
            ) -> Tuple[float, Dict[str, Any]]:
    """One invocation: returns (wall seconds, metrics snapshot)."""
    clock = MONOTONIC_CLOCK
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        ctx = BenchContext(tmp_path=Path(tmp), seed=seed, repeat=repeat)
        random.seed(seed)
        if case.setup is not None:
            case.setup(ctx)
            random.seed(seed)
        if case.manages_session:
            t0 = clock()
            case.fn(ctx)
            return clock() - t0, {}
        with obs.session(label=f"bench.{case.name}") as session:
            t0 = clock()
            case.fn(ctx)
            elapsed = clock() - t0
        return elapsed, session.registry.snapshot()


def _profile_case(case: BenchCase, seed: int, *, profile_dir: Path,
                  interval: float, top_n: int) -> Dict[str, Any]:
    """Untimed extra passes: one sampled, one under cProfile."""
    clock = MONOTONIC_CLOCK

    def run_once() -> None:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            ctx = BenchContext(tmp_path=Path(tmp), seed=seed, repeat=0)
            random.seed(seed)
            if case.setup is not None:
                case.setup(ctx)
                random.seed(seed)
            if case.manages_session:
                case.fn(ctx)
            else:
                with obs.session(label=f"bench.{case.name}"):
                    case.fn(ctx)

    sampler = SamplingProfiler(interval=interval, clock=clock)
    sampler.profile(run_once)
    collapsed_path = profile_dir / f"{case.name}.collapsed.txt"
    sampler.write_collapsed(collapsed_path)
    _, cprofile_frames = capture_cprofile(run_once, top_n=top_n)
    return {
        "sampling": {
            "interval_s": sampler.interval,
            "samples": sampler.samples,
            "elapsed_s": sampler.elapsed_s,
            "top_frames": sampler.top_frames(top_n),
            "collapsed_file": collapsed_path.name,
        },
        "cprofile": {"top_frames": cprofile_frames},
    }


def run_suite(
    suite: str = "tier1",
    *,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    seed: int = DEFAULT_SEED,
    patterns: Optional[Sequence[str]] = None,
    profile: bool = False,
    profile_dir: "str | Path | None" = None,
    profile_interval: float = 0.002,
    profile_top_n: int = 10,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run every case in ``suite`` and return a ``BENCH_*`` document.

    Each case runs ``warmup`` throwaway iterations (caches, imports, JIT
    warm paths) then ``repeats`` timed ones; with ``profile=True`` two
    extra untimed passes capture sampled stacks (written to
    ``profile_dir``) and cProfile hot frames.  The caller decides where
    the document goes (:func:`repro.bench.results.write`).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    cases = select_cases(suite, patterns)
    if not cases:
        raise ValueError(f"no bench cases match suite={suite!r} "
                         f"patterns={list(patterns) if patterns else None}")
    if profile:
        profile_dir = Path(profile_dir) if profile_dir is not None \
            else Path(f"bench-profiles-{suite}")
        profile_dir.mkdir(parents=True, exist_ok=True)

    case_docs: Dict[str, Dict[str, Any]] = {}
    for case in cases:
        if progress is not None:
            progress(f"bench {case.name} ...")
        samples: List[float] = []
        metrics: Dict[str, Any] = {}
        for i in range(-warmup, repeats):
            elapsed, snapshot = _invoke(case, seed, i)
            if i >= 0:
                samples.append(elapsed)
                metrics = snapshot  # keep the last timed repeat's view
        doc: Dict[str, Any] = {
            "description": case.description,
            "suites": list(case.suites),
            "samples_s": samples,
            "metrics": metrics,
        }
        doc.update(_results.case_stats(samples))
        if profile:
            doc["profile"] = _profile_case(
                case, seed, profile_dir=Path(profile_dir),
                interval=profile_interval, top_n=profile_top_n)
        case_docs[case.name] = doc

    spec_hash = hashlib.sha256(
        f"repro.bench:{suite}:{','.join(sorted(case_docs))}:"
        f"{repeats}:{warmup}:{seed}".encode()).hexdigest()
    manifest = obs.RunManifest.capture(
        label=f"bench:{suite}",
        spec_hash=spec_hash,
        seed=seed,
        annotations={"suite": suite, "cases": len(case_docs)},
    )
    return _results.build_document(
        suite=suite,
        config={"repeats": repeats, "warmup": warmup, "seed": seed,
                "profile": bool(profile)},
        manifest=manifest.to_json_dict(),
        cases=case_docs,
    )
