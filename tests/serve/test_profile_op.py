"""The PROFILE verb: continuous profiling at the serving gateway.

start attaches the two-sided profiler (sampled stacks tagged with span
stages + deterministic cost counters), snapshot reads it live without
disturbing it, stop detaches but retains the final profile for later
snapshots.  While running, the gateway exports ``repro_profile_*``
families and ships the live snapshot in its ALERTS frame, which the
``repro watch`` hotspots panel renders.
"""

from __future__ import annotations

import pytest

from repro.obs.dashboard import render_frame, render_hotspots
from repro.serve.client import ServeClient
from repro.serve.errors import InvalidRequest
from repro.serve.server import BackgroundServer


@pytest.fixture()
def profiled_service(mendel):
    svc = mendel.service(cache_capacity=0)
    yield svc
    svc.close()


class TestProfileVerbLocal:
    def test_start_query_snapshot_stop_cycle(
        self, profiled_service, probe_texts, serve_params
    ):
        svc = profiled_service
        started = svc.profile(action="start", hz=200)
        assert started["action"] == "start"
        assert started["running"]
        for i, text in enumerate(probe_texts[:3]):
            svc.query_text(text, serve_params, query_id=f"pf{i}")
        snap = svc.profile()
        assert snap["action"] == "snapshot"
        assert snap["running"]
        assert snap["sampling"]["hz"] == 200
        # the deterministic side charged the engine's hot paths
        assert snap["cost"]["totals"].get("distance_evals", 0) > 0
        assert snap["cost"]["totals"].get("knn_candidates", 0) > 0
        stopped = svc.profile(action="stop")
        assert stopped["action"] == "stop"
        assert stopped["running"] is False
        # stop retains the final profile for later snapshots
        retained = svc.profile()
        assert retained["action"] == "snapshot"
        assert retained["cost"] == stopped["cost"]

    def test_start_is_idempotent(self, profiled_service):
        first = profiled_service.profile(action="start")
        second = profiled_service.profile(action="start")
        assert first["running"] and second["running"]
        assert second["sampling"]["hz"] == first["sampling"]["hz"]
        profiled_service.profile(action="stop")

    def test_snapshot_without_any_run_is_invalid(self, profiled_service):
        with pytest.raises(InvalidRequest, match="no profiler is running"):
            profiled_service.profile()

    def test_stop_without_start_is_invalid(self, profiled_service):
        with pytest.raises(InvalidRequest, match="no profiler is running"):
            profiled_service.profile(action="stop")

    def test_unknown_action_is_invalid(self, profiled_service):
        with pytest.raises(InvalidRequest, match="unknown profile action"):
            profiled_service.profile(action="resume")

    def test_close_stops_a_running_profiler(self, mendel):
        svc = mendel.service(cache_capacity=0)
        svc.profile(action="start")
        sampler = svc._profiler.sampler
        svc.close()
        assert svc._profiler is None
        assert not sampler.running


class TestProfileMetricsAndDashboard:
    def test_profile_gauges_exported_while_running(
        self, profiled_service, probe_texts, serve_params
    ):
        svc = profiled_service
        text = svc.metrics_text()
        assert "repro_profile_samples_total" not in text
        svc.profile(action="start")
        try:
            svc.query_text(probe_texts[0], serve_params, query_id="pm0")
            text = svc.metrics_text()
            assert "repro_profile_samples_total" in text
            assert "repro_profile_overhead_ratio" in text
        finally:
            svc.profile(action="stop")
        assert "repro_profile_samples_total" not in svc.metrics_text()

    def test_alerts_frame_carries_profile_and_renders(
        self, profiled_service, probe_texts, serve_params
    ):
        svc = profiled_service
        assert "profile" not in svc.alerts()
        svc.profile(action="start")
        try:
            svc.query_text(probe_texts[1], serve_params, query_id="pd0")
            frame = svc.alerts()
            assert "profile" in frame
            rendered = render_frame(frame)
            assert "== hotspots " in rendered
        finally:
            svc.profile(action="stop")
        assert "profile" not in svc.alerts()

    def test_render_hotspots_empty_and_populated(self):
        empty = render_hotspots({"sampling": {"samples": 0}})
        assert any("no stacks sampled yet" in line for line in empty)
        populated = render_hotspots({
            "sampling": {
                "samples": 40, "hz": 67.0, "elapsed_s": 0.6,
                "overhead": 0.002,
                "stages": [{"stage": "node", "samples": 30, "share": 0.75}],
                "top_functions": [
                    {"function": "f (repro/x.py:1)", "self_samples": 20,
                     "share": 0.5},
                ],
            },
        })
        text = "\n".join(populated)
        assert "40 stacks @ 67 Hz" in text
        assert "node 75.0%" in text
        assert "f (repro/x.py:1)" in text


class TestProfileVerbOverTheWire:
    def test_wire_cycle(self, profiled_service, probe_texts, serve_params):
        svc = profiled_service
        with BackgroundServer(svc) as server:
            client = ServeClient("127.0.0.1", server.port)
            try:
                started = client.call("profile", action="start", hz=150)
                assert started["ok"]
                assert started["profile"]["running"]
                svc.query_text(probe_texts[2], serve_params, query_id="pw0")
                snap = client.call("profile")
                assert snap["ok"]
                assert snap["profile"]["sampling"]["hz"] == 150
                stopped = client.call("profile", action="stop")
                assert stopped["ok"]
                assert stopped["profile"]["running"] is False
            finally:
                client.close()

    def test_wire_validation_errors(self, profiled_service):
        with BackgroundServer(profiled_service) as server:
            client = ServeClient("127.0.0.1", server.port)
            try:
                bad_action = client.request({"op": "profile", "action": 7})
                assert bad_action["ok"] is False
                assert bad_action["error"] == "invalid_request"
                bad_hz = client.request(
                    {"op": "profile", "action": "start", "hz": -1}
                )
                assert bad_hz["ok"] is False
                assert bad_hz["error"] == "invalid_request"
                no_run = client.call("profile", action="stop")
                assert no_run["ok"] is False
                assert no_run["error"] == "invalid_request"
            finally:
                client.close()
