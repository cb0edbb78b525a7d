"""Gateway continuous health: the wall-clock monitor, the ALERTS verb, the
HEALTH upgrade, and the slow-query/event-log trace-id join."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer


@pytest.fixture()
def alerting_service(mendel):
    """A service whose turnaround SLO catches every request (threshold 0)
    and whose event log is private to the test."""
    svc = mendel.service(
        cache_capacity=0,
        slow_query_threshold=0.0, slow_log_size=8,
        event_log=EventLog(),
    )
    yield svc
    svc.close()


class TestGatewayMonitor:
    def test_service_owns_a_wall_clock_monitor(self, alerting_service):
        monitor = alerting_service.monitor
        assert monitor is not None
        assert monitor.label == alerting_service.stats.service
        assert monitor.latency_threshold == 0.0

    def test_turnaround_slo_fires_on_slow_traffic(self, alerting_service,
                                                  probe_texts, serve_params):
        for text in probe_texts[:4]:
            alerting_service.query_text(text, serve_params)
        alerts = alerting_service.alerts()
        assert "turnaround" in alerts["firing"]
        state = alerts["alerts"]["turnaround"]
        assert state["state"] in ("warning", "critical")
        assert state["burn_fast"] > 0

    def test_health_flips_to_alerting(self, alerting_service, probe_texts,
                                      serve_params):
        alerting_service.query_text(probe_texts[0], serve_params)
        health = alerting_service.health()
        assert health["status"] == "alerting"
        assert "turnaround" in health["alerts_firing"]

    def test_snapshot_reports_firing(self, alerting_service, probe_texts,
                                     serve_params):
        alerting_service.query_text(probe_texts[0], serve_params)
        snap = alerting_service.snapshot()
        assert "turnaround" in snap["alerts_firing"]

    def test_healthy_service_stays_ok(self, mendel, probe_texts,
                                      serve_params):
        with mendel.service(cache_capacity=0,
                            event_log=EventLog()) as svc:
            svc.query_text(probe_texts[0], serve_params)
            assert svc.alerts()["firing"] == []
            assert svc.health()["status"] == "ok"


class TestSlowQueryEventJoin:
    def test_slow_queries_emit_events_joinable_by_trace_id(
        self, alerting_service, probe_texts, serve_params
    ):
        result = alerting_service.query_text(probe_texts[0], serve_params)
        events = [e for e in alerting_service.monitor.events.events()
                  if e.kind == "slow_query"]
        assert events, "threshold 0 must log every request as slow"
        event_traces = {e.trace_id for e in events}
        log_traces = {entry["trace_id"]
                      for entry in alerting_service.snapshot()["slow_queries"]}
        # Satellite contract: every slow-log entry joins the event log.
        assert result.trace_id in event_traces
        assert log_traces <= event_traces
        fields = dict(events[-1].fields)
        assert "latency_ms" in fields and "turnaround_ms" in fields


class TestPrometheusExport:
    def test_sli_and_alert_families_exported(self, alerting_service,
                                             probe_texts, serve_params):
        alerting_service.query_text(probe_texts[0], serve_params)
        alerting_service.alerts()  # tick the monitor
        text = alerting_service.metrics_text()
        label = alerting_service.stats.service
        for family in ("repro_sli_window_good_ratio", "repro_sli_window_value",
                       "repro_sli_window_count", "repro_slo_burn_rate",
                       "repro_alert_state"):
            assert f"# TYPE {family} " in text, family
        assert f'source="{label}"' in text

    def test_every_family_has_exactly_one_help_and_type(
        self, alerting_service, probe_texts, serve_params
    ):
        alerting_service.query_text(probe_texts[0], serve_params)
        text = alerting_service.metrics_text()
        helps = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# HELP")]
        types = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert sorted(helps) == sorted(set(helps))
        assert sorted(types) == sorted(set(types))
        # Satellite contract: HELP accompanies TYPE for every family.
        assert sorted(helps) == sorted(types)


class TestAlertsOverTheWire:
    def test_alerts_op(self, alerting_service, probe_texts, serve_params):
        with BackgroundServer(alerting_service) as server:
            client = ServeClient(server.host, server.port)
            try:
                reply = client.query(probe_texts[0],
                                     dict(serve_params.__dict__))
                assert reply["ok"]
                alerts = client.call("alerts")
                assert alerts["ok"]
                assert "turnaround" in alerts["firing"]
                assert "slis" in alerts and "transitions" in alerts
                health = client.call("health")
                assert health["status"] == "alerting"
            finally:
                client.close()
