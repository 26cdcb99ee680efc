"""Tests of the end-to-end harness itself (``pytest benchmarks/e2e``; not
part of tier-1).  One smoke-size traced run of all five workloads backs
most of them.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from common import (DRIVER_GATED, USER_FACING, Checks,  # noqa: E402
                    load_benchmark)
from workloads import NAMES, load, transport_loopback  # noqa: E402

BENCH = load_benchmark()
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``run.py --smoke --trace 1`` over every workload: (file, stdout)."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8")), proc.stdout


def test_benchmark_json_mirrors_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(NAMES)
    assert BENCH["paths"] == ["benchmarks/e2e"]
    # common.USER_FACING is where bounds are written; the file copies it.
    assert BENCH["end_to_end"] == [
        dict(zip(("name", "unit", "better", "bound"), (n, *USER_FACING[n])))
        for n in DRIVER_GATED]
    for name in set(USER_FACING) - set(DRIVER_GATED):
        unit, better, _ = USER_FACING[name]
        assert PER_LAYER[name] == {"name": name, "unit": unit, "better": better}


def test_every_named_metric_is_emitted_and_none_unnamed(smoke):
    doc, _ = smoke
    assert set(doc["workloads"]) == set(NAMES)
    emitted = set()
    for name, wl in doc["workloads"].items():
        for metric, m in wl["metrics"].items():
            spec = E2E.get(metric) or PER_LAYER.get(metric)
            assert spec is not None, f"{name} emits unnamed metric {metric}"
            assert m["unit"] == spec["unit"]
            assert math.isfinite(m["value"]), (name, metric)
            emitted.add(metric)
        # Every workload reports every end-to-end metric, never 0.
        for metric in E2E:
            assert wl["metrics"][metric]["value"] > 0, (name, metric)
        assert wl["failed"] == 0, wl["failures"]
        assert wl["metrics"]["fail_ratio"]["value"] == 0.0
    assert emitted == set(E2E) | set(PER_LAYER)


def test_result_lines_carry_exactly_the_contract_keys(smoke):
    doc, stdout = smoke
    lines = [json.loads(line) for line in stdout.splitlines()[-len(NAMES):]]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == set(PER_LAYER)
    units = {n: m["unit"] for n, m in {**E2E, **PER_LAYER}.items()}
    untraced = json.loads(run.contract_line(
        doc["workloads"][NAMES[0]], list(E2E), units))
    assert set(untraced["metrics"]) == set(E2E)


def test_environment_block(smoke):
    env = smoke[0]["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "git_sha", "platform",
                "seed", "repeats", "seconds", "smoke"):
        assert key in env
    for wl in smoke[0]["workloads"].values():
        assert len(wl["load_avg"]["start"]) == len(wl["load_avg"]["end"]) == 3
        assert wl["metrics"]["wall_s"]["samples"]


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_inputs(name):
    wl = load(name)
    assert wl.inputs(1, "bench") == wl.inputs(1, "bench")
    assert wl.inputs(1, "bench") != wl.inputs(2, "bench")


def test_short_fetch_raises_fail_ratio():
    checks = Checks()
    full = SimpleNamespace(bytes_received=14 * 1200, payload_bytes=1200)
    short = SimpleNamespace(bytes_received=13 * 1200, payload_bytes=1200)
    transport_loopback.check_fetch(checks, full, 16 * 1024)
    assert checks.fail_ratio == 0.0
    transport_loopback.check_fetch(checks, short, 16 * 1024)
    transport_loopback.check_fetch(checks, None, 16 * 1024)  # timed out
    assert checks.fail_ratio == pytest.approx(2 / 3)


def _steady(doc):
    """The smoke file with every sample set to its median, so run-to-run
    spread cannot blur the verdicts under test."""
    doc = copy.deepcopy(doc)
    for wl in doc["workloads"].values():
        for m in wl["metrics"].values():
            if "samples" in m:
                m["samples"] = [m["value"]] * len(m["samples"])
    return doc


def _scaled(doc, metric, factor):
    doc = copy.deepcopy(doc)
    for wl in doc["workloads"].values():
        m = wl["metrics"][metric]
        m["value"] *= factor
        m["samples"] = [v * factor for v in m["samples"]]
    return doc


def test_compare_passes_an_identical_pair_and_flags_a_slowdown(smoke, tmp_path):
    base = _steady(smoke[0])
    rows, failing = compare.compare(base, base)
    assert failing == 0 and not any("regression" in r for r in rows)

    slow = _scaled(base, "wall_s", 1.2)
    rows, failing = compare.compare(base, slow)
    assert failing == len(NAMES)
    assert sum("wall_s" in r and "regression" in r for r in rows) == len(NAMES)
    # The other way round it is a gain, not a failure.
    rows, failing = compare.compare(slow, base)
    assert failing == 0 and any("improved" in r for r in rows)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_compare_reports_unresolved_and_failures(smoke):
    base = _steady(smoke[0])
    noisy = copy.deepcopy(base)
    for wl in noisy["workloads"].values():
        m = wl["metrics"]["wall_s"]
        m["samples"] = [m["value"] * f for f in (0.7, 1.0, 1.3)]
    rows, failing = compare.compare(base, noisy)
    assert failing == 0
    assert sum("wall_s" in r and "unresolved" in r for r in rows) == len(NAMES)
    # Wide spread, but every run of B slower than every run of A: resolved.
    slow = _scaled(noisy, "wall_s", 2.0)
    assert compare.compare(base, slow)[1] == len(NAMES)

    failed = copy.deepcopy(base)
    failed["workloads"][NAMES[0]]["metrics"]["fail_ratio"]["value"] = 0.01
    assert compare.compare(base, failed)[1] == 1
    # A change that stops emitting a metric does not pass.
    silent = copy.deepcopy(base)
    del silent["workloads"][NAMES[0]]["metrics"]["energy_j_per_gbit"]
    rows, failing = compare.compare(base, silent)
    assert failing == 1 and any("missing" in r for r in rows)


def test_fails_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
