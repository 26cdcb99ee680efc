"""Tests for `repro.bench`: registry/runner, results schema, the
regression comparator, profiling, and the CLI."""

import json
import re
import time

import pytest

from repro.bench import (
    SamplingProfiler,
    capture_cprofile,
    compare_documents,
    parse_collapsed,
    render_comparison,
    run_suite,
)
from repro.bench import results
from repro.bench import runner as bench_runner

# ------------------------------------------------------------------ fixtures


@pytest.fixture
def fresh_registry(monkeypatch):
    """An empty case registry (the built-in cases stay untouched)."""
    monkeypatch.setattr(bench_runner, "_REGISTRY", {})
    monkeypatch.setattr(bench_runner, "_discovered", True)
    return bench_runner


def make_doc(case_samples, suite="tier1", **case_extra):
    """A schema-valid document from {name: [samples]} without running."""
    cases = {}
    for name, samples in case_samples.items():
        doc = {"samples_s": list(samples), "metrics": {}}
        doc.update(results.case_stats(samples))
        doc.update(case_extra)
        cases[name] = doc
    return results.build_document(
        suite=suite,
        config={"repeats": len(next(iter(case_samples.values()))),
                "warmup": 0, "seed": 1},
        manifest={"label": f"bench:{suite}"},
        cases=cases,
    )


# ----------------------------------------------------------------- registry


def test_register_and_select(fresh_registry):
    @fresh_registry.register("t.a", suites=("s1",))
    def _a(ctx):
        pass

    @fresh_registry.register("t.b", suites=("s1", "s2"), description="bee")
    def _b(ctx):
        pass

    assert [c.name for c in fresh_registry.all_cases()] == ["t.a", "t.b"]
    assert fresh_registry.suite_names() == ["s1", "s2"]
    assert [c.name for c in fresh_registry.select_cases("s2")] == ["t.b"]
    assert [c.name for c in fresh_registry.select_cases("s1", [".a"])] \
        == ["t.a"]


def test_duplicate_registration_rejected(fresh_registry):
    @fresh_registry.register("t.dup")
    def _a(ctx):
        pass

    with pytest.raises(ValueError, match="already registered"):
        @fresh_registry.register("t.dup")
        def _b(ctx):
            pass


def test_builtin_cases_cover_engine_campaign_obs():
    from repro.bench import all_cases

    names = {c.name for c in all_cases()}
    assert {"engine.packet_transfer", "engine.fluid_fattree",
            "campaign.cold_sweep", "campaign.cached_replay",
            "obs.null_span"} <= names
    tier1 = {c.name for c in all_cases() if "tier1" in c.suites}
    assert len(tier1) >= 8


# ------------------------------------------------------------------- runner


def test_run_suite_shape_and_order(fresh_registry):
    seen = []

    @fresh_registry.register("t.case", suites=("tsuite",))
    def _case(ctx):
        seen.append((ctx.repeat, ctx.seed))
        assert ctx.tmp_path.is_dir()
        (ctx.tmp_path / "scratch").write_text("x")

    doc = fresh_registry.run_suite("tsuite", repeats=3, warmup=1, seed=7)
    # Warmup repeats are negative, timed ones 0-based.
    assert seen == [(-1, 7), (0, 7), (1, 7), (2, 7)]
    case = doc["cases"]["t.case"]
    assert len(case["samples_s"]) == 3
    assert case["median_s"] >= 0
    assert doc["config"] == {"repeats": 3, "warmup": 1, "seed": 7,
                             "profile": False}
    assert doc["manifest"]["seed"] == 7
    assert doc["manifest"]["spec_hash"]
    assert doc["manifest"]["cpu_count"] >= 1
    results.validate(doc)
    json.dumps(doc)  # fully serializable


def test_run_suite_setup_untimed_and_session_metrics(fresh_registry):
    order = []

    def setup(ctx):
        order.append("setup")
        time.sleep(0.05)
        (ctx.tmp_path / "warm").write_text("x")

    @fresh_registry.register("t.with_setup", suites=("tsuite",), setup=setup)
    def _case(ctx):
        order.append("fn")
        assert (ctx.tmp_path / "warm").exists()
        import repro.obs as obs
        obs.active_session().registry.counter("t.hits").inc(3)

    doc = fresh_registry.run_suite("tsuite", repeats=1, warmup=0)
    assert order == ["setup", "fn"]
    case = doc["cases"]["t.with_setup"]
    # The 50 ms setup must not leak into the timed sample.
    assert case["median_s"] < 0.05
    assert case["metrics"]["t.hits"] == 3


def test_run_suite_manages_session_case(fresh_registry):
    @fresh_registry.register("t.own_session", suites=("tsuite",),
                             manages_session=True)
    def _case(ctx):
        import repro.obs as obs
        with obs.session():  # would raise if the runner nested one
            pass

    doc = fresh_registry.run_suite("tsuite", repeats=2, warmup=0)
    assert doc["cases"]["t.own_session"]["metrics"] == {}


def test_failing_case_is_recorded_by_name_and_the_suite_goes_on(
        fresh_registry):
    @fresh_registry.register("t.a_breaks", suites=("tsuite",))
    def _breaks(ctx):
        if ctx.repeat >= 1:
            raise AssertionError("bound broken")

    @fresh_registry.register("t.b_holds", suites=("tsuite",))
    def _holds(ctx):
        pass

    doc = fresh_registry.run_suite("tsuite", repeats=3, warmup=1)
    broken = doc["cases"]["t.a_breaks"]
    # The warmup and repeat 0 finished; repeat 1 raised.
    assert len(broken["samples_s"]) == 1
    assert "median_s" not in broken
    assert broken["error"].startswith("AssertionError: bound broken (test_bench.py:")
    assert "raise AssertionError" in broken["traceback"]
    assert len(doc["cases"]["t.b_holds"]["samples_s"]) == 3
    assert results.failures(doc) == {"t.a_breaks": broken["error"]}
    results.validate(json.loads(json.dumps(doc)))
    assert results.summary_rows(doc)[0][:3] == ["t.a_breaks", 1, "FAILED"]


def test_run_suite_rejects_bad_args(fresh_registry):
    @fresh_registry.register("t.x", suites=("tsuite",))
    def _case(ctx):
        pass

    with pytest.raises(ValueError, match="repeats"):
        fresh_registry.run_suite("tsuite", repeats=0)
    with pytest.raises(ValueError, match="no bench cases"):
        fresh_registry.run_suite("nosuch")


# ------------------------------------------------------------------ results


def test_median_and_mad():
    assert results.median([3.0, 1.0, 2.0]) == 2.0
    assert results.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert results.mad([1.0, 1.0, 1.0]) == 0.0
    assert results.mad([1.0, 2.0, 9.0]) == 1.0
    with pytest.raises(ValueError):
        results.median([])


def test_validate_rejects_malformed():
    good = make_doc({"a": [1.0, 2.0]})
    results.validate(good)
    with pytest.raises(ValueError, match="schema"):
        results.validate({"schema": "other/1"})
    bad = json.loads(json.dumps(good))
    del bad["cases"]["a"]["median_s"]
    with pytest.raises(ValueError, match="median_s"):
        results.validate(bad)
    bad2 = json.loads(json.dumps(good))
    bad2["cases"]["a"]["samples_s"] = []
    with pytest.raises(ValueError, match="samples_s"):
        results.validate(bad2)


def test_write_load_round_trip(tmp_path):
    doc = make_doc({"a": [1.0, 2.0, 3.0]})
    path = results.write(doc, tmp_path / "BENCH_x.json")
    assert results.load(path) == doc
    (tmp_path / "junk.json").write_text("{not json")
    with pytest.raises(ValueError, match="not JSON"):
        results.load(tmp_path / "junk.json")


# --------------------------------------------------------------- comparator


def test_compare_identical_passes():
    doc = make_doc({"a": [1.0, 1.1, 0.9], "b": [2.0, 2.0, 2.0]})
    comparison = compare_documents(doc, doc)
    assert comparison.ok and comparison.exit_code == 0
    assert {c.status for c in comparison.cases} == {"ok"}


def test_compare_flags_artificial_slowdown():
    base = make_doc({"a": [1.0, 1.0, 1.0]})
    slowed = make_doc({"a": [1.5, 1.5, 1.5]})  # 50% > 10% tolerance
    comparison = compare_documents(slowed, base, tolerance=0.10)
    (case,) = comparison.cases
    assert case.status == "regression"
    assert comparison.exit_code == 1
    assert case.ratio == pytest.approx(1.5)


def test_compare_zero_variance_uses_pure_relative_threshold():
    base = make_doc({"a": [1.0, 1.0, 1.0]})  # MAD = 0
    barely_over = make_doc({"a": [1.1001, 1.1001, 1.1001]})
    within = make_doc({"a": [1.0999, 1.0999, 1.0999]})
    assert compare_documents(barely_over, base).exit_code == 1
    assert compare_documents(within, base).exit_code == 0


def test_compare_tolerance_boundary_exactly_met_passes():
    # threshold = 1.0 * (1 + 0.10) + 3 * 0 = 1.10; landing exactly on it
    # is a pass — the gate is strict-greater-than by contract.
    base = make_doc({"a": [1.0, 1.0, 1.0]})
    at_boundary = make_doc({"a": [1.1, 1.1, 1.1]})
    comparison = compare_documents(at_boundary, base, tolerance=0.10)
    (case,) = comparison.cases
    assert case.status == "ok"
    assert case.threshold_s == pytest.approx(1.1)
    assert comparison.exit_code == 0


def test_compare_mad_widens_threshold():
    base = make_doc({"a": [1.0, 1.2, 0.8]})  # median 1.0, MAD 0.2
    cur = make_doc({"a": [1.5, 1.5, 1.5]})
    # threshold = 1.0*1.1 + 3*0.2 = 1.7 > 1.5 -> noisy baseline absorbs it
    assert compare_documents(cur, base, tolerance=0.10).exit_code == 0
    # with mad_k=0 the same slowdown trips the gate
    assert compare_documents(cur, base, tolerance=0.10,
                             mad_k=0.0).exit_code == 1


def test_compare_new_case_is_informational():
    base = make_doc({"a": [1.0]})
    cur = make_doc({"a": [1.0], "b": [5.0]})
    comparison = compare_documents(cur, base)
    statuses = {c.name: c.status for c in comparison.cases}
    assert statuses == {"a": "ok", "b": "new"}
    assert comparison.exit_code == 0


def test_compare_missing_case_fails_unless_allowed():
    base = make_doc({"a": [1.0], "b": [1.0]})
    cur = make_doc({"a": [1.0]})
    comparison = compare_documents(cur, base)
    statuses = {c.name: c.status for c in comparison.cases}
    assert statuses == {"a": "ok", "b": "missing"}
    assert comparison.exit_code == 1
    assert compare_documents(cur, base, allow_missing=True).exit_code == 0


def test_compare_renamed_case_cannot_slip_through():
    base = make_doc({"old_name": [1.0]})
    cur = make_doc({"new_name": [1.0]})
    comparison = compare_documents(cur, base)
    statuses = {c.name: c.status for c in comparison.cases}
    assert statuses == {"new_name": "new", "old_name": "missing"}
    assert comparison.exit_code == 1


def test_compare_gates_a_failed_case_by_name():
    base = make_doc({"a": [1.0], "b": [1.0]})
    cur = make_doc({"a": [1.0], "b": [1.0]})
    # As run_suite writes it: the error, the samples, no statistics.
    cur["cases"]["b"] = {"samples_s": [],
                         "error": "AssertionError: bound broken"}
    comparison = compare_documents(cur, base)
    statuses = {c.name: c.status for c in comparison.cases}
    assert statuses == {"a": "ok", "b": "failed"}
    assert comparison.exit_code == 1
    assert "failed: b: AssertionError: bound broken" in render_comparison(comparison)
    # Failed only in the baseline: nothing to gate on.
    assert compare_documents(base, cur).exit_code == 0
    # Failed in the baseline and gone from the current run: missing.
    del base["cases"]["b"]
    gone = compare_documents(base, cur)
    assert [(c.name, c.status) for c in gone.missing] == [("b", "missing")]
    assert gone.missing[0].baseline_median_s is None


def test_overhead_verdict_needs_a_resolved_slowdown():
    from repro.bench.cases import overhead_verdict

    assert overhead_verdict([1.10] * 24)[:3] == (True, 1.10, 24)
    # Seven faster pairs leave 17 of 24 slower: p = 0.032, resolved.
    assert overhead_verdict([1.10] * 17 + [0.9] * 7)[0] is True
    # Eight leave 16 of 24: p = 0.076, not resolved.
    assert overhead_verdict([1.10] * 16 + [0.9] * 8)[0] is False
    # Resolved but within budget.
    assert overhead_verdict([1.02] * 24)[0] is False


def test_paired_ratios_alternate_which_side_runs_first():
    from repro.bench.cases import paired_ratios

    calls = []
    ratios = paired_ratios(lambda: calls.append(("base", sum(range(999)))),
                           lambda: calls.append(("treated", sum(range(999)))),
                           3)
    calls = [side for side, _ in calls]
    assert calls == ["base", "treated", "treated", "base", "base", "treated"]
    assert len(ratios) == 3


def test_compare_improvement_reported_not_gated():
    base = make_doc({"a": [2.0, 2.0, 2.0]})
    cur = make_doc({"a": [1.0, 1.0, 1.0]})
    comparison = compare_documents(cur, base)
    (case,) = comparison.cases
    assert case.status == "improvement"
    assert comparison.exit_code == 0


def test_comparison_to_dict_is_the_ci_contract():
    from repro.bench import comparison_to_dict

    base = make_doc({"a": [1.0, 1.0, 1.0], "gone": [1.0]})
    cur = make_doc({"a": [2.0, 2.0, 2.0], "b": [1.0]})
    verdict = comparison_to_dict(compare_documents(cur, base))
    assert verdict["ok"] is False and verdict["exit_code"] == 1
    assert verdict["counts"] == {"cases": 3, "regressions": 1,
                                 "improvements": 0, "missing": 1, "new": 1,
                                 "failed": 0}
    assert verdict["cases"]["a"]["status"] == "regression"
    assert verdict["cases"]["a"]["ratio"] == pytest.approx(2.0)
    assert verdict["cases"]["b"]["status"] == "new"
    assert verdict["cases"]["gone"]["status"] == "missing"
    # The contract document must be pure JSON.
    json.loads(json.dumps(verdict))


def test_render_comparison_mentions_verdict():
    base = make_doc({"a": [1.0]})
    out = render_comparison(compare_documents(base, base))
    assert "PASS" in out and "a" in out
    slowed = make_doc({"a": [9.0]})
    out = render_comparison(compare_documents(slowed, base))
    assert "FAIL" in out and "regression" in out


# ---------------------------------------------------------------- profiling


def _busy(deadline_s=0.08):
    t0 = time.perf_counter()
    total = 0
    while time.perf_counter() - t0 < deadline_s:
        total += sum(range(500))
    return total


def test_sampling_profiler_collects_and_exports(tmp_path):
    prof = SamplingProfiler(interval=0.001)
    prof.profile(_busy)
    assert prof.samples > 5
    top = prof.top_frames(5)
    assert top and top[0]["self_samples"] > 0
    assert any("_busy" in f["frame"] for f in top)

    path = prof.write_collapsed(tmp_path / "busy.collapsed.txt")
    text = path.read_text()
    # flamegraph.pl line shape: frame(;frame)* space count
    line_re = re.compile(r"^\S+?(;\S+?)* \d+$")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines
    for line in lines:
        assert line_re.match(line), line
    stacks = parse_collapsed(text)
    assert sum(count for _frames, count in stacks) == prof.samples


def test_parse_collapsed_rejects_malformed():
    with pytest.raises(ValueError):
        parse_collapsed("no-count-here\n")
    with pytest.raises(ValueError):
        parse_collapsed("a;;b 3\n")
    assert parse_collapsed("a;b 3\n\nc 1\n") == [(["a", "b"], 3), (["c"], 1)]


def test_capture_cprofile_top_frames():
    result, frames = capture_cprofile(_busy, top_n=5)
    assert result > 0
    assert frames and all("frame" in f and "self_s" in f for f in frames)
    assert len(frames) <= 5


def test_profiled_packet_simulator_case(tmp_path):
    """Acceptance: the packet-simulator case yields non-empty hot frames
    and a parseable collapsed-stack file."""
    doc = run_suite("engine", repeats=1, warmup=0,
                    patterns=["engine.packet_transfer"],
                    profile=True, profile_dir=tmp_path,
                    profile_interval=0.001)
    case = doc["cases"]["engine.packet_transfer"]
    profile = case["profile"]
    assert profile["sampling"]["samples"] > 0
    assert profile["sampling"]["top_frames"]
    assert profile["cprofile"]["top_frames"]
    collapsed = tmp_path / profile["sampling"]["collapsed_file"]
    stacks = parse_collapsed(collapsed.read_text())
    assert stacks and all(count >= 1 for _f, count in stacks)
    # The event engine must show up as a hot frame somewhere.
    all_frames = {f for frames, _c in stacks for f in frames}
    assert any("events.py" in f for f in all_frames)
    json.dumps(doc)


# ---------------------------------------------------------------------- CLI


def test_cli_bench_list(capsys):
    from repro.cli import main

    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "engine.packet_transfer" in out and "tier1" in out
    assert main(["bench", "list", "--suite", "nosuch"]) == 2


def test_cli_bench_run_and_compare_round_trip(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "BENCH_obs.json"
    rc = main(["bench", "run", "--suite", "obs", "--case", "null_span",
               "--repeats", "3", "--warmup", "0", "--out", str(out_path)])
    assert rc == 0
    doc = results.load(out_path)
    assert doc["suite"] == "obs"
    assert len(doc["cases"]["obs.null_span"]["samples_s"]) == 3
    assert doc["cases"]["obs.null_span"]["metrics"]["bench.per_call_s"] > 0

    # Identical input gates green through the CLI...
    assert main(["bench", "compare", str(out_path), str(out_path)]) == 0
    # ...and an artificially slowed copy gates red.
    slowed = json.loads(out_path.read_text())
    case = slowed["cases"]["obs.null_span"]
    case["samples_s"] = [s * 10 for s in case["samples_s"]]
    case.update(results.case_stats(case["samples_s"]))
    slow_path = tmp_path / "BENCH_slow.json"
    results.write(slowed, slow_path)
    capsys.readouterr()
    assert main(["bench", "compare", str(slow_path), str(out_path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    # Unreadable inputs are a usage error, not a crash.
    assert main(["bench", "compare", str(out_path),
                 str(tmp_path / "nope.json")]) == 2


def test_cli_bench_run_exits_1_naming_each_failed_case(
        fresh_registry, tmp_path, capsys):
    from repro.cli import main

    @fresh_registry.register("t.broken", suites=("tsuite",))
    def _broken(ctx):
        raise RuntimeError("workload crashed")

    @fresh_registry.register("t.fine", suites=("tsuite",))
    def _fine(ctx):
        pass

    out_path = tmp_path / "BENCH_tsuite.json"
    assert main(["bench", "run", "--suite", "tsuite", "--repeats", "1",
                 "--warmup", "0", "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "FAILED t.broken: RuntimeError: workload crashed" in err
    assert set(results.load(out_path)["cases"]) == {"t.broken", "t.fine"}


def test_cli_bench_compare_json_flag(tmp_path, capsys):
    from repro.cli import main

    base = results.write(make_doc({"a": [1.0, 1.0, 1.0]}),
                         tmp_path / "BENCH_base.json")
    cur = results.write(make_doc({"a": [2.0, 2.0, 2.0]}),
                        tmp_path / "BENCH_cur.json")
    # --json PATH: human table on stdout plus the JSON verdict file.
    verdict_path = tmp_path / "verdict.json"
    assert main(["bench", "compare", str(cur), str(base),
                 "--json", str(verdict_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and str(verdict_path) in out
    verdict = json.loads(verdict_path.read_text())
    assert verdict["ok"] is False
    assert verdict["cases"]["a"]["status"] == "regression"
    # --json -: machine-readable stdout, no human table.
    assert main(["bench", "compare", str(cur), str(base), "--json", "-"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert json.loads(out)["exit_code"] == 1


def test_cli_obs_report_renders_bench_document(tmp_path, capsys):
    from repro.cli import main

    doc = make_doc({"a": [0.5, 0.6]})
    path = results.write(doc, tmp_path / "BENCH_t.json")
    assert main(["obs", "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(bench)" in out and "median ms" in out and "a" in out
