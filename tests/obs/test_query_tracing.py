"""End-to-end tracing through the query pipeline and the serving layer."""

from __future__ import annotations

import pytest

from repro import QueryParams
from repro.obs.export import chrome_trace_events
from repro.obs.metrics import default_registry
from repro.obs.trace import TraceContext

STAGES = ["receive", "route", "fanout", "gapped", "reply"]


@pytest.fixture()
def traced_report(mendel, planted_probe):
    probe, _target = planted_probe
    ctx = TraceContext()
    report = mendel.query(probe, QueryParams(n=6), trace_ctx=ctx)
    return report


class TestPipelineSpans:
    def test_untraced_query_has_no_span_tree(self, mendel, planted_probe):
        probe, _ = planted_probe
        report = mendel.query(probe, QueryParams(n=6))
        assert report.root_span is None
        assert report.trace_id is None

    def test_root_span_covers_turnaround(self, traced_report):
        root = traced_report.root_span
        assert root is not None
        assert traced_report.trace_id == root.trace_id
        assert root.sim_duration == pytest.approx(
            traced_report.stats.turnaround, rel=1e-9
        )

    def test_stage_spans_tile_the_turnaround(self, traced_report):
        """Acceptance: per-stage sim-clock times sum to the turnaround."""
        root = traced_report.root_span
        assert [child.name for child in root.children] == STAGES
        total = sum(child.sim_duration for child in root.children)
        assert total == pytest.approx(traced_report.stats.turnaround, rel=1e-9)
        # Stages are sequential: each starts where the previous ended.
        for before, after in zip(root.children, root.children[1:]):
            assert after.sim_start == pytest.approx(before.sim_end, rel=1e-9)

    def test_fanout_contains_group_and_node_spans(self, traced_report):
        fanout = traced_report.root_span.find("fanout")
        groups = [c for c in fanout.children if c.name.startswith("group:")]
        assert groups, "fanout recorded no group spans"
        # Every contacted group fanned out (and aggregated) exactly once.
        assert len(groups) == traced_report.stats.groups_contacted
        for group in groups:
            assert "coordinator" in group.attrs
            nodes = [c for c in group.children if c.name.startswith("node:")]
            assert nodes, f"{group.name} recorded no node subqueries"
            for node in nodes:
                assert node.attrs["evals"] >= 0
                assert node.attrs["attempt"] == 0
            assert group.find("group_aggregate") is not None

    def test_route_span_matches_stats(self, traced_report):
        route = traced_report.root_span.find("route")
        assert route.attrs["subqueries"] == traced_report.stats.subqueries_routed
        assert route.attrs["windows"] == traced_report.stats.windows

    def test_root_annotations(self, traced_report):
        attrs = traced_report.root_span.attrs
        assert attrs["coverage"] == 1.0
        assert attrs["degraded"] is False
        assert attrs["hedged_retries"] == 0

    def test_chrome_export_of_real_query(self, traced_report):
        events = chrome_trace_events([traced_report.root_span])
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(list(traced_report.root_span.walk()))
        actors = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "client" in actors
        assert any(actor.startswith("g") for actor in actors)


class TestPipelineMetrics:
    def test_hot_path_counters_advance(self, mendel, planted_probe):
        probe, _ = planted_probe
        registry = default_registry()
        group_ids = [g.group_id for g in mendel.index.topology.groups]
        before_queries = sum(
            registry.value("repro_queries_total", status=s)
            for s in ("ok", "degraded")
        )
        before_evals = sum(
            registry.value("repro_distance_evaluations_total", group=g)
            for g in group_ids
        )
        before_routed = sum(
            registry.value("repro_subqueries_routed_total", group=g)
            for g in group_ids
        )
        report = mendel.query(probe, QueryParams(n=6))
        after_queries = sum(
            registry.value("repro_queries_total", status=s)
            for s in ("ok", "degraded")
        )
        after_evals = sum(
            registry.value("repro_distance_evaluations_total", group=g)
            for g in group_ids
        )
        after_routed = sum(
            registry.value("repro_subqueries_routed_total", group=g)
            for g in group_ids
        )
        assert after_queries == before_queries + 1
        assert after_evals > before_evals
        assert after_routed - before_routed == report.stats.subqueries_routed


class TestBatchTracing:
    def test_query_many_with_contexts(self, mendel, protein_db):
        records = [r for r in protein_db.records[:2]]
        contexts = [TraceContext(), TraceContext()]
        reports = mendel.query_many(records, QueryParams(n=4),
                                    trace_contexts=contexts)
        assert [r.trace_id for r in reports] == [c.trace_id for c in contexts]
        for report in reports:
            assert report.root_span.sim_duration == pytest.approx(
                report.stats.turnaround, rel=1e-9
            )

    def test_context_count_mismatch_rejected(self, mendel, protein_db):
        with pytest.raises(ValueError, match="trace contexts"):
            mendel.query_many(
                list(protein_db.records[:2]), trace_contexts=[TraceContext()]
            )
