"""Tests for the perf-trajectory harness (repro.bench.regress)."""

import copy
import json

import pytest

from repro.bench import regress


def _report(metrics=None):
    """A minimal schema-conformant report for comparator tests."""
    base_metrics = {
        "wall_s": {"value": 2.0, "unit": "s", "direction": "lower",
                   "tolerance": 0.9},
        "sim_ms": {"value": 100.0, "unit": "ms", "direction": "lower",
                   "tolerance": 0.05},
        "ops_per_s": {"value": 50.0, "unit": "ops/s", "direction": "higher",
                      "tolerance": 0.45},
        "blocks": {"value": 1000.0, "unit": "blocks", "direction": "stable",
                   "tolerance": 0.0},
    }
    if metrics:
        base_metrics.update(metrics)
    return {
        "schema_version": regress.SCHEMA_VERSION,
        "suite": regress.SUITE_NAME,
        "seed": 23,
        "workloads": {"synthetic": {"metrics": base_metrics}},
    }


class TestComparator:
    def test_identical_reports_have_no_regressions(self):
        report = _report()
        assert regress.compare(report, copy.deepcopy(report)) == []

    def test_flags_injected_2x_wall_slowdown(self):
        baseline = _report()
        current = copy.deepcopy(baseline)
        current["workloads"]["synthetic"]["metrics"]["wall_s"]["value"] = 4.0
        regressions = regress.compare(current, baseline)
        assert len(regressions) == 1
        found = regressions[0]
        assert found.metric == "wall_s"
        assert found.ratio == pytest.approx(2.0)
        assert "wall_s" in found.describe()

    def test_wide_wall_band_tolerates_ci_variance(self):
        # 1.5x slower is inside the 0.9 band: wall metrics only fail near 2x.
        baseline = _report()
        current = copy.deepcopy(baseline)
        current["workloads"]["synthetic"]["metrics"]["wall_s"]["value"] = 3.0
        assert regress.compare(current, baseline) == []

    def test_tight_sim_band_catches_small_drift(self):
        baseline = _report()
        current = copy.deepcopy(baseline)
        current["workloads"]["synthetic"]["metrics"]["sim_ms"]["value"] = 110.0
        regressions = regress.compare(current, baseline)
        assert [r.metric for r in regressions] == ["sim_ms"]

    def test_throughput_halving_is_flagged(self):
        baseline = _report()
        current = copy.deepcopy(baseline)
        current["workloads"]["synthetic"]["metrics"]["ops_per_s"]["value"] = 25.0
        regressions = regress.compare(current, baseline)
        assert [r.metric for r in regressions] == ["ops_per_s"]

    def test_throughput_improvement_is_not_flagged(self):
        baseline = _report()
        current = copy.deepcopy(baseline)
        current["workloads"]["synthetic"]["metrics"]["ops_per_s"]["value"] = 500.0
        assert regress.compare(current, baseline) == []

    def test_stable_counter_drift_is_flagged_both_ways(self):
        for drifted in (998.0, 1002.0):
            baseline = _report()
            current = copy.deepcopy(baseline)
            current["workloads"]["synthetic"]["metrics"]["blocks"][
                "value"
            ] = drifted
            regressions = regress.compare(current, baseline)
            assert [r.metric for r in regressions] == ["blocks"]

    def test_new_metrics_and_workloads_are_ignored(self):
        baseline = _report()
        current = _report(
            metrics={
                "brand_new": {"value": 1.0, "unit": "s", "direction": "lower",
                              "tolerance": 0.0}
            }
        )
        current["workloads"]["another"] = {"metrics": {}}
        assert regress.compare(current, baseline) == []

    def test_schema_mismatch_raises(self):
        baseline = _report()
        current = _report()
        current["schema_version"] = regress.SCHEMA_VERSION + 1
        with pytest.raises(regress.SchemaMismatch):
            regress.compare(current, baseline)

    def test_zero_baseline_lower_metric(self):
        baseline = _report(
            metrics={"wall_s": {"value": 0.0, "unit": "s",
                                "direction": "lower", "tolerance": 0.9}}
        )
        current = _report(
            metrics={"wall_s": {"value": 2.0, "unit": "s",
                                "direction": "lower", "tolerance": 0.9}}
        )
        regressions = regress.compare(current, baseline)
        assert [r.metric for r in regressions] == ["wall_s"]
        assert regressions[0].ratio == float("inf")


class TestMetric:
    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            regress.Metric(1.0, "s", "sideways", 0.1)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            regress.Metric(1.0, "s", "lower", -0.1)

    def test_round_trip(self):
        metric = regress.Metric(1.234567891, "ms", "higher", 0.45)
        restored = regress.Metric.from_dict(metric.to_dict())
        assert restored.value == pytest.approx(metric.value)
        assert restored.direction == "higher"
        assert restored.tolerance == 0.45


class TestBenchFiles:
    def test_find_runs_orders_numerically(self, tmp_path):
        for n in (10, 2, 1):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored: not numbered
        runs = regress.find_runs(tmp_path)
        assert [n for n, _ in runs] == [1, 2, 10]
        assert regress.latest_run(tmp_path)[0] == 10

    def test_write_report_increments(self, tmp_path):
        first = regress.write_report(_report(), tmp_path)
        second = regress.write_report(_report(), tmp_path)
        assert first.name == "BENCH_1.json"
        assert second.name == "BENCH_2.json"
        assert regress.load_report(second)["schema_version"] == (
            regress.SCHEMA_VERSION
        )

    def test_load_report_rejects_junk(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"not": "a report"}))
        with pytest.raises(ValueError):
            regress.load_report(path)

    def test_empty_dir_has_no_runs(self, tmp_path):
        assert regress.find_runs(tmp_path) == []
        assert regress.latest_run(tmp_path) is None


class TestSuiteEndToEnd:
    @pytest.fixture(scope="class")
    def suite_report(self):
        return regress.run_suite(seed=23)

    def test_schema_shape(self, suite_report):
        assert suite_report["schema_version"] == regress.SCHEMA_VERSION
        assert set(suite_report["workloads"]) == {
            "index_build", "query_sweep", "degraded_query",
            "cold_vs_warm_query",
        }
        for payload in suite_report["workloads"].values():
            for raw in payload["metrics"].values():
                metric = regress.Metric.from_dict(raw)  # validates fields
                assert metric.tolerance >= 0

    def test_sim_metrics_match_committed_baseline_bands(self, suite_report):
        sweep = suite_report["workloads"]["query_sweep"]["metrics"]
        for name, raw in sweep.items():
            if name.startswith("sim_"):
                assert raw["tolerance"] == regress.SIM_TOLERANCE
        build = suite_report["workloads"]["index_build"]["metrics"]
        assert build["sim_makespan_s"]["tolerance"] == regress.SIM_TOLERANCE
        # Wall-clock numbers are perfbench's: the suite emits none.
        for payload in suite_report["workloads"].values():
            assert not any("wall" in name for name in payload["metrics"])

    def test_degraded_workload_really_degrades(self, suite_report):
        degraded = suite_report["workloads"]["degraded_query"]["metrics"]
        assert 0.0 < degraded["coverage"]["value"] < 1.0

    def test_self_comparison_is_clean(self, suite_report):
        assert regress.compare(
            suite_report, copy.deepcopy(suite_report)
        ) == []

    def test_format_report_lists_every_metric(self, suite_report):
        text = regress.format_report(suite_report)
        assert "capacity_x" in text
        assert "sim_turnaround_ms_len600" in text
