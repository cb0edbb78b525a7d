"""The ANALYZE verb: slow-log trace analytics over the wire.

Slow-log entries must carry the reconciled EXPLAIN funnel plus the trace
fingerprint; ``analyze()`` clusters them into families and merges their
critical paths; the ``repro_slowfamily_*`` gauges expose the clusters to
Prometheus scrapes.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.export import prometheus_text
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer


@pytest.fixture()
def analyzed_service(mendel, probe_texts, serve_params):
    """A service that slow-logs everything, pre-loaded with queries."""
    svc = mendel.service(
        cache_capacity=0,
        slow_query_threshold=0.0, slow_log_size=16,
    )
    for i, text in enumerate(probe_texts[:4]):
        svc.query_text(text, serve_params, query_id=f"an{i}")
    yield svc
    svc.close()


class TestSlowLogAnalytics:
    def test_entries_carry_funnel_and_fingerprint(self, analyzed_service):
        entries = analyzed_service.snapshot()["slow_queries"]
        assert entries
        for entry in entries:
            assert entry["fingerprint"]["signature"]
            assert entry["family"] != "untraced"
            assert entry["critical_path"]
            stages = [stage["stage"] for stage in entry["funnel"]]
            assert "knn_candidates" in stages
        # Critical-path self-times tile the logged latency's sim turnaround.
        entry = entries[0]
        total_ms = max(row["total_ms"] for row in entry["critical_path"])
        self_ms = math.fsum(row["self_ms"] for row in entry["critical_path"])
        assert self_ms == pytest.approx(total_ms, rel=1e-9)

    def test_analyze_clusters_families(self, analyzed_service):
        summary = analyzed_service.analyze()
        assert summary["slow_queries"] == 4
        families = summary["families"]
        assert families
        assert sum(f["count"] for f in families) == 4
        for family in families:
            assert family["exemplar_trace_ids"]
        assert summary["critical_path"]
        total_steps = sum(row["count"] for row in summary["critical_path"])
        assert total_steps >= 4  # one root step per logged query

    def test_empty_log_analyzes_cleanly(self, mendel):
        with mendel.service(cache_capacity=0) as svc:
            summary = svc.analyze()
            assert summary["slow_queries"] == 0
            assert summary["families"] == []
            assert summary["critical_path"] == []

    def test_slowfamily_gauges_exported(self, analyzed_service):
        text = prometheus_text(analyzed_service.stats.registry)
        assert "repro_slowfamily_queries" in text
        assert "repro_slowfamily_turnaround_ms" in text
        assert 'family="' in text


class TestAnalyzeVerb:
    def test_analyze_over_the_wire(self, analyzed_service):
        with BackgroundServer(analyzed_service) as server:
            client = ServeClient("127.0.0.1", server.port)
            try:
                response = client.call("analyze")
            finally:
                client.close()
        assert response["ok"]
        assert response["slow_queries"] == 4
        assert response["families"]
        assert response["families"][0]["exemplar_trace_ids"]
        assert response["critical_path"]

    def test_alerts_frame_includes_storage(self, analyzed_service):
        frame = analyzed_service.alerts()
        storage = frame["storage"]
        assert storage["tiered"] is False
        for key in ("pinned_pages", "cold_read_seeks", "cold_read_bytes",
                    "cache_resident_pages"):
            assert key in storage
