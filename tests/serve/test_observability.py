"""Gateway observability: trace ids, METRICS verb, slow-query log."""

from __future__ import annotations

import pytest

from repro import QueryParams
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer


@pytest.fixture()
def slow_logging_service(mendel):
    """A service whose slow-query threshold catches every request."""
    svc = mendel.service(
        cache_capacity=8,
        slow_query_threshold=0.0, slow_log_size=4,
    )
    yield svc
    svc.close()


class TestServiceTracing:
    def test_results_carry_trace_ids(self, slow_logging_service, probe_texts,
                                     serve_params):
        result = slow_logging_service.query_text(
            probe_texts[0], serve_params, query_id="traced"
        )
        assert result.trace_id is not None
        assert result.report.root_span is not None
        assert result.report.root_span.trace_id == result.trace_id

    def test_cache_hits_replay_the_recorded_trace(self, slow_logging_service,
                                                  probe_texts, serve_params):
        first = slow_logging_service.query_text(probe_texts[1], serve_params)
        second = slow_logging_service.query_text(probe_texts[1], serve_params)
        assert second.cached
        assert second.trace_id == first.trace_id

    def test_tracing_can_be_disabled(self, mendel, probe_texts, serve_params):
        with mendel.service(cache_capacity=0,
                            tracing=False) as svc:
            result = svc.query_text(probe_texts[0], serve_params)
            assert result.trace_id is None
            assert result.report.root_span is None


class TestSlowQueryLog:
    def test_threshold_exceeding_requests_are_logged(self, slow_logging_service,
                                                     probe_texts, serve_params):
        slow_logging_service.query_text(
            probe_texts[2], serve_params, query_id="sluggish"
        )
        snapshot = slow_logging_service.snapshot()
        assert snapshot["slow_query_threshold"] == 0.0
        entries = snapshot["slow_queries"]
        assert entries
        entry = next(e for e in entries if e["query_id"] == "sluggish")
        assert entry["latency_ms"] > 0
        assert entry["trace_id"] is not None
        assert "query:sluggish" in entry["spans"]
        assert "fanout" in entry["spans"]

    def test_log_is_bounded_to_last_n(self, slow_logging_service, probe_texts,
                                      serve_params):
        for i in range(6):
            slow_logging_service.query_text(
                probe_texts[i % len(probe_texts)],
                QueryParams(k=4, n=4, i=0.6, c=0.4 + i * 1e-6),
                query_id=f"s{i}",
            )
        entries = slow_logging_service.snapshot()["slow_queries"]
        assert len(entries) <= 4  # slow_log_size

    def test_no_threshold_means_no_log(self, mendel, probe_texts,
                                       serve_params):
        with mendel.service(cache_capacity=0) as svc:
            svc.query_text(probe_texts[0], serve_params)
            assert svc.snapshot()["slow_queries"] == []


class TestMetricsEndpoint:
    def test_metrics_text_has_required_families(self, slow_logging_service,
                                                probe_texts, serve_params):
        """Acceptance: METRICS exposes query count, distance evaluations
        (labelled by group), cache hit/miss, and admission rejections."""
        slow_logging_service.query_text(probe_texts[0], serve_params)
        slow_logging_service.query_text(probe_texts[0], serve_params)  # hit
        text = slow_logging_service.metrics_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total{" in text
        assert 'repro_distance_evaluations_total{group="g00"}' in text
        assert "repro_cache_hits_total{" in text
        assert "repro_cache_misses_total{" in text
        assert "# TYPE repro_admission_rejections_total counter" in text
        assert "repro_serve_request_latency_seconds_bucket" in text

    def test_metrics_op_over_the_wire(self, slow_logging_service, probe_texts,
                                      serve_params):
        with BackgroundServer(slow_logging_service) as server:
            with ServeClient(server.host, server.port, timeout=60) as client:
                query = client.query(
                    probe_texts[3],
                    params={"k": serve_params.k, "n": serve_params.n,
                            "i": serve_params.i, "c": serve_params.c},
                    query_id="wired",
                    trace=True,
                )
                assert query["ok"]
                assert query["trace_id"]
                assert query["trace"]["name"] == "query:wired"
                assert query["trace"]["children"], "span tree came back empty"
                response = client.call("metrics")
        assert response["ok"]
        assert response["content_type"].startswith("text/plain")
        assert "repro_queries_total" in response["metrics"]
        assert "repro_serve_requests_total" in response["metrics"]

    def test_stats_snapshot_shape_is_preserved(self, slow_logging_service,
                                               probe_texts, serve_params):
        """Satellite 1 regression: migrating ServiceStats onto obs types
        must keep the exact STATS response shape."""
        slow_logging_service.query_text(probe_texts[4], serve_params)
        snapshot = slow_logging_service.snapshot()
        for key in ("uptime_s", "received", "completed", "shed", "timeouts",
                    "invalid", "errors", "degraded", "partial_rejected",
                    "latency", "queue_depth", "max_pending", "index_version",
                    "cache"):
            assert key in snapshot
        for key in ("count", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
                    "max_ms"):
            assert key in snapshot["latency"]
        assert snapshot["completed"] >= 1
        assert snapshot["latency"]["count"] == snapshot["completed"]
