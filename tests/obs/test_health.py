"""Tests for rolling SLI windows and the health monitor (repro.obs.health)."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.obs.export import prometheus_text
from repro.obs.health import (
    HealthMonitor,
    RollingWindow,
    SLIRecorder,
)
from repro.obs.metrics import MetricsRegistry


class TestRollingWindow:
    def test_prunes_samples_older_than_width(self):
        window = RollingWindow(width=10.0)
        window.observe(0.0, 1.0)
        window.observe(5.0, 2.0)
        window.observe(12.0, 3.0)
        stats = window.stats(14.0)
        # The t=0 sample aged out (14 - 10 = 4 > 0); the others remain.
        assert stats.count == 2
        assert stats.max == 3.0

    def test_good_bad_accounting(self):
        window = RollingWindow(width=100.0)
        for i in range(8):
            window.observe(float(i), 1.0, good=i % 2 == 0)
        stats = window.stats(8.0)
        assert (stats.good, stats.bad) == (4, 4)
        assert stats.good_ratio == 0.5
        assert stats.bad_fraction == 0.5
        assert window.last_bad_at == 7.0

    def test_percentiles_are_exact_over_window(self):
        window = RollingWindow(width=1000.0)
        for i in range(1, 101):
            window.observe(float(i), float(i))
        stats = window.stats(100.0)
        assert stats.p50 == pytest.approx(50.0, abs=1.0)
        assert stats.p99 == pytest.approx(99.0, abs=1.0)
        assert stats.mean == pytest.approx(50.5)

    def test_exceed_fraction_is_strict(self):
        window = RollingWindow(width=100.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.observe(0.0, value)
        assert window.exceed_fraction(1.0, 2.0) == 0.5
        assert window.exceed_fraction(1.0, 4.0) == 0.0

    def test_empty_window_is_benign(self):
        window = RollingWindow(width=1.0)
        stats = window.stats(100.0)
        assert stats.count == 0
        assert stats.good_ratio == 1.0
        assert stats.bad_fraction == 0.0
        assert window.bad_fraction(100.0) == 0.0

    def test_max_samples_bounds_memory(self):
        window = RollingWindow(width=1e9, max_samples=16)
        for i in range(100):
            window.observe(float(i), float(i))
        assert window.count(100.0) == 16

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            RollingWindow(width=0.0)


class TestSLIRecorder:
    def test_snapshot_keys_windows_by_duration_label(self):
        recorder = SLIRecorder(windows=(1.0, 60.0))
        recorder.observe("availability", 0.5, 1.0, good=True)
        snap = recorder.snapshot(0.5)
        assert sorted(snap) == ["availability"]
        labels = sorted(snap["availability"])
        assert len(labels) == 2
        for stats in snap["availability"].values():
            assert stats["count"] == 1

    def test_bad_trace_ids_accumulate_on_bad_only(self):
        recorder = SLIRecorder(windows=(10.0,))
        recorder.observe("availability", 1.0, 1.0, good=True, trace_id="g")
        recorder.observe("availability", 2.0, 0.0, good=False, trace_id="b1")
        recorder.observe("availability", 3.0, 0.0, good=False, trace_id="b2")
        assert list(recorder.sli("availability").bad_trace_ids) == ["b1", "b2"]


class TestHealthMonitor:
    def _monitor(self) -> HealthMonitor:
        return HealthMonitor(
            windows=(1.0, 4.0), event_log=EventLog(), label="test",
        )

    def test_for_chaos_run_scales_windows_to_horizon(self):
        monitor = HealthMonitor.for_chaos_run(
            horizon=0.8, arrival_interval=0.05, event_log=EventLog()
        )
        # fast = max(horizon/8, 2.5 * arrival_interval)
        assert monitor.fast_window == pytest.approx(0.125)
        assert monitor.slow_window >= 0.8
        assert monitor.interval == pytest.approx(monitor.fast_window / 2.0)

    def test_observe_query_feeds_three_slis(self):
        monitor = self._monitor()
        monitor.observe_query(0.1, turnaround=0.02, coverage=0.5,
                              degraded=True, trace_id="t1")
        snap = monitor.recorder.snapshot(0.1)
        assert sorted(snap) == ["availability", "coverage", "turnaround"]
        assert list(monitor.recorder.sli("availability").bad_trace_ids) == ["t1"]

    def test_tick_fires_and_resolves_with_correlated_cause(self):
        monitor = self._monitor()
        monitor.events.emit("crash", "node-3", "killed", sim_time=0.05)
        for i in range(6):
            monitor.observe_query(0.1 + i * 0.1, 0.01, coverage=0.5,
                                  degraded=True, trace_id=f"t{i}")
        transitions = monitor.tick(0.7)
        fired = {t.slo: t for t in transitions}
        assert fired["availability"].to == "critical"
        assert fired["availability"].cause["kind"] == "crash"
        assert fired["availability"].cause["actor"] == "node-3"
        assert "t0" in fired["availability"].trace_ids
        assert "availability" in monitor.alerts_firing()

        # Recovery: healthy traffic pushes the fast window cool.
        monitor.events.emit("repair", "g00", "reconciled", sim_time=2.0)
        for i in range(8):
            monitor.observe_query(2.0 + i * 0.1, 0.01, coverage=1.0,
                                  degraded=False)
        resolved = {t.slo: t for t in monitor.tick(2.9)}
        assert resolved["availability"].to == "resolved"
        assert resolved["availability"].cause["kind"] == "repair"
        assert monitor.alerts_firing() == []
        back = {t.slo: t for t in monitor.tick(3.0)}
        assert back["availability"].to == "ok"

    def test_snapshot_is_a_complete_dashboard_frame(self):
        monitor = self._monitor()
        monitor.observe_query(0.1, 0.01, coverage=1.0, degraded=False)
        monitor.tick(0.2)
        frame = monitor.snapshot()
        for key in ("now", "windows", "slis", "alerts", "transitions",
                    "events"):
            assert key in frame
        assert frame["alerts"]["availability"]["state"] == "ok"
        assert len(monitor.history) == 1

    def test_install_exports_sli_and_alert_families_once(self):
        registry = MetricsRegistry()
        monitor = self._monitor()
        monitor.observe_query(0.1, 0.01, coverage=1.0, degraded=False)
        monitor.tick(0.2)
        monitor.install(registry)
        monitor.install(registry)  # idempotent
        try:
            text = prometheus_text(registry)
            for family in ("repro_sli_window_good_ratio",
                           "repro_sli_window_value",
                           "repro_sli_window_count",
                           "repro_slo_burn_rate",
                           "repro_alert_state"):
                assert text.count(f"# TYPE {family} ") == 1, family
            assert 'source="test"' in text
            assert 'repro_alert_state{source="test",slo="availability"} 0' \
                in text
        finally:
            monitor.uninstall()
        assert "repro_alert_state" not in prometheus_text(registry)

    def test_tick_proc_terminates_at_stop(self):
        from repro.sim.engine import Simulation

        monitor = self._monitor()
        sim = Simulation()
        sim.spawn(monitor.tick_proc(sim, stop_at=10.0), name="monitor")
        sim.run()
        assert sim.now <= 10.0
        assert monitor.last_now > 0.0


class TestCumulativeHistogramExport:
    """Satellite: standard `_bucket`/`_sum`/`_count` series next to the
    precomputed quantile gauges, so histogram_quantile() works natively."""

    def _installed(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            windows=(1.0, 4.0), event_log=EventLog(), label="hist",
        )
        for i in range(5):
            monitor.observe_query(0.1 + i * 0.1, 0.002 * (i + 1),
                                  coverage=1.0, degraded=False)
        monitor.tick(0.6)
        monitor.install(registry)
        return registry, monitor

    def test_bucket_sum_count_series_present(self):
        registry, monitor = self._installed()
        try:
            text = prometheus_text(registry)
            assert "# TYPE repro_sli_window_dist histogram" in text
            assert 'repro_sli_window_dist_bucket{source="hist",sli="turnaround"' \
                in text
            assert 'le="+Inf"' in text
            assert "repro_sli_window_dist_sum{" in text
            assert "repro_sli_window_dist_count{" in text
        finally:
            monitor.uninstall()

    def test_buckets_are_cumulative_and_inf_matches_count(self):
        registry, monitor = self._installed()
        try:
            # Parse the text exposition instead of poking registry internals.
            text = prometheus_text(registry)
            series: dict[tuple, float] = {}
            for line in text.splitlines():
                if line.startswith("repro_sli_window_dist_bucket{") \
                        and 'sli="turnaround"' in line and 'window="1.00 s"' in line:
                    labels, value = line.rsplit(" ", 1)
                    le = labels.split('le="')[1].split('"')[0]
                    series[le] = float(value)
            assert series, text
            ordered = [v for _le, v in sorted(
                series.items(),
                key=lambda kv: float("inf") if kv[0] == "+Inf"
                else float(kv[0]),
            )]
            assert ordered == sorted(ordered)  # monotone non-decreasing
            count_lines = [
                line for line in text.splitlines()
                if line.startswith("repro_sli_window_dist_count{")
                and 'sli="turnaround"' in line and 'window="1.00 s"' in line
            ]
            (count_line,) = count_lines
            assert ordered[-1] == float(count_line.rsplit(" ", 1)[1])
        finally:
            monitor.uninstall()

    def test_window_values_prunes_like_stats(self):
        recorder = SLIRecorder(windows=(1.0,))
        recorder.observe("lat", 0.0, 0.5, good=True)
        recorder.observe("lat", 2.0, 0.25, good=True)
        values = recorder.window_values(2.1)
        assert values["lat"]["1.00 s"] == [0.25]
