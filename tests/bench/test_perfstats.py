"""Tests for the perf harness plumbing (not the timings themselves)."""

import json

import pytest

from repro.bench import perfstats


class TestBaselineFile:
    def test_repo_root_finds_pyproject(self):
        assert (perfstats.repo_root() / "pyproject.toml").exists()

    def test_committed_baseline_loads(self):
        base = perfstats.load_baseline()
        assert base is not None, f"{perfstats.BASELINE_FILENAME} missing"
        for metric in perfstats.GUARDED_METRICS:
            assert metric in base["current"]

    def test_pr6_ab_speedups_remain_committed(self):
        """The PR 6 acceptance record stays in the trajectory: the since
        deleted calendar queue cleared 1.5x on the large-N storm and
        batched pricing cleared 3x over the scalar loop, both interleaved
        A/B on one machine.  Its interleaved A/B column covers exactly
        the paired metrics."""
        traj = perfstats.load_trajectory()
        pr6 = next(p for p in traj if p["pr"] == 6)
        for metric in pr6["speedup"]:
            assert metric in pr6["baseline"]
        assert pr6["speedup"]["events_large_n_per_s"] >= 1.5
        assert pr6["speedup"]["pricing_batch_per_s"] >= 3.0
        soak = pr6["parallel_soak"]
        assert soak["seeds"] >= 1 and soak["host_cpus"] >= 1
        assert soak["scenarios_per_s_jobs1"] > 0

    def test_trajectory_includes_this_pr(self):
        traj = perfstats.load_trajectory()
        prs = [p["pr"] for p in traj]
        assert prs == sorted(prs)
        assert 7 in prs and 8 in prs
        this = next(p for p in traj if p["pr"] == 8)
        assert this["_file"] == perfstats.BASELINE_FILENAME

    def test_pr8_obs_guard_remains_committed(self):
        """The PR 8 acceptance contract: obs-off collective tables are
        bit-equal to the BENCH_PR7 rows, and obs-on moves wall clock
        only — never a simulated timestamp."""
        traj = perfstats.load_trajectory()
        pr8 = next(p for p in traj if p["pr"] == 8)
        eq = pr8["obs_off_bit_equality"]
        assert eq["alltoall_flat_switch_identical"] is True
        for pair in pr8["obs_overhead"].values():
            assert pair["timestamps_identical"] is True
            assert pair["makespan_off_us"] == pair["makespan_on_us"]

    def test_load_baseline_missing_file_returns_none(self, tmp_path):
        assert perfstats.load_baseline(tmp_path / "nope.json") is None

    def test_load_baseline_bad_json_returns_none(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert perfstats.load_baseline(p) is None


class TestCompare:
    BASE = {"current": {"events_per_s": 100_000.0}}

    def test_within_tolerance_is_clean(self):
        assert perfstats.compare_to_baseline({"events_per_s": 71_000.0}, self.BASE) == []

    def test_beyond_tolerance_reports(self):
        problems = perfstats.compare_to_baseline({"events_per_s": 69_000.0}, self.BASE)
        assert len(problems) == 1
        assert "events_per_s" in problems[0]

    def test_missing_metric_ignored(self):
        assert perfstats.compare_to_baseline({}, self.BASE) == []
        assert perfstats.compare_to_baseline({"events_per_s": 1.0}, {"current": {}}) == []

    def test_render_includes_committed_column(self):
        out = perfstats.render_stats({"events_per_s": 123.0}, self.BASE)
        assert "events_per_s" in out and "123" in out and "100,000" in out


class TestCompareStats:
    REF = {"current": {"events_per_s": 100.0, "fig_slice_wall_s": 2.0}}

    def test_rate_ratio_is_measured_over_reference(self):
        deltas = perfstats.compare_stats({"events_per_s": 150.0}, self.REF)
        assert deltas["events_per_s"]["ratio"] == pytest.approx(1.5)

    def test_wall_time_ratio_is_inverted(self):
        # Halving wall time is a 2x speedup, not 0.5x.
        deltas = perfstats.compare_stats({"fig_slice_wall_s": 1.0}, self.REF)
        assert deltas["fig_slice_wall_s"]["ratio"] == pytest.approx(2.0)

    def test_unshared_metrics_dropped(self):
        deltas = perfstats.compare_stats({"novel_per_s": 9.0}, self.REF)
        assert deltas == {}

    def test_render_comparison_mentions_label_and_ratio(self):
        deltas = perfstats.compare_stats({"events_per_s": 150.0}, self.REF)
        out = perfstats.render_comparison(deltas, "BENCH_PR1.json")
        assert "BENCH_PR1.json" in out and "1.50x" in out
        assert "no comparable" in perfstats.render_comparison({}, "x.json")


class TestMicrobenchesSmallScale:
    """Tiny-sized sanity runs: every bench returns a positive rate."""

    def test_event_bench_runs(self):
        assert perfstats.bench_event_throughput(n_events=2_000, repeats=1) > 0

    def test_estimator_bench_runs(self):
        assert perfstats.bench_estimator_throughput(n_calls=2_000, repeats=1) > 0

    def test_split_bench_runs_both_shapes(self):
        assert perfstats.bench_split_throughput(n_calls=5, same_shape=True, repeats=1) > 0
        assert perfstats.bench_split_throughput(n_calls=5, same_shape=False, repeats=1) > 0

    def test_fig_slice_runs(self):
        assert perfstats.bench_fig_slice(messages=2, repeats=1) > 0

    def test_event_storm_runs(self):
        assert perfstats.bench_event_storm(n_events=5_000, repeats=1) > 0

    def test_pricing_bench_runs_both_paths(self):
        fast = perfstats.bench_pricing_throughput(
            n_calls=3, n_candidates=8, batch=True
        )
        slow = perfstats.bench_pricing_throughput(
            n_calls=3, n_candidates=8, batch=False
        )
        assert fast > 0 and slow > 0
