"""EXPLAIN plans: funnel invariants, determinism, and reconciliation.

The funnel EXPLAIN prints must be internally consistent three ways: stage
counts monotone non-increasing (it is an attrition funnel), equal to the
``repro_query_funnel_total{stage}`` counters the engine bumped for the same
run, and equal to the per-stage annotations on the run's span tree.
"""

import os

import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.core.explain import build_funnel, build_plan
from repro.core.query import FUNNEL_STAGES
from repro.obs.metrics import default_registry
from repro.obs.trace import TraceContext
from repro.seq import PROTEIN, random_set
from repro.seq.mutate import mutate_to_identity

#: Chaos-matrix seed (CI runs 0, 7, 31): plans must be deterministic under
#: every seed, not just the default.
SEED = int(os.environ.get("CHAOS_SEED", "0"))

PARAMS = QueryParams(k=4, n=6, i=0.6, c=0.5)


def _small_deployment():
    db = random_set(
        count=16, length=120, alphabet=PROTEIN, rng=301 + SEED, id_prefix="x"
    )
    mendel = Mendel.build(
        db, MendelConfig(group_count=2, group_size=2, sample_size=128,
                         seed=SEED + 5)
    )
    probe = mutate_to_identity(
        db.records[3], 0.85, rng=SEED + 17, seq_id="probe"
    )
    return mendel, probe


@pytest.fixture(scope="module")
def plan(mendel, planted_probe):
    probe, _target = planted_probe
    return mendel.explain(probe, PARAMS)


class TestFunnelInvariants:
    def test_stages_in_pipeline_order(self, plan):
        assert [s.stage for s in plan.funnel] == [
            stage for stage, _field in FUNNEL_STAGES
        ]

    def test_monotone_non_increasing(self, plan):
        counts = [s.count for s in plan.funnel]
        assert all(b <= a for a, b in zip(counts, counts[1:])), counts
        assert plan.is_monotone()

    def test_funnel_finds_something(self, plan):
        # The planted 85%-identity probe must survive the whole pipeline.
        assert plan.stage("knn_candidates").count > 0
        assert plan.stage("alignments").count > 0

    def test_drop_accounting(self, plan):
        previous = None
        for stage in plan.funnel:
            if previous is not None:
                assert stage.dropped == previous.count - stage.count
                if previous.count:
                    assert stage.retained == pytest.approx(
                        stage.count / previous.count
                    )
            else:
                assert stage.dropped == 0
                assert stage.retained == 1.0
            previous = stage

    def test_matches_report_stats(self, plan):
        assert plan.report is not None
        for (stage_name, count), stage in zip(
            plan.report.stats.funnel(), plan.funnel
        ):
            assert stage.stage == stage_name
            assert stage.count == count

    def test_rendered_funnel_has_every_stage(self, plan):
        text = plan.render()
        for stage, _field in FUNNEL_STAGES:
            assert stage in text


class TestRoutingFacts:
    def test_windows_cover_the_probe(self, plan, mendel):
        assert plan.windows == len(plan.routes) > 0
        assert plan.window_length == mendel.index.segment_length
        assert plan.stride == PARAMS.k

    def test_groups_and_nodes_are_real(self, plan, mendel):
        group_ids = {g.group_id for g in mendel.index.topology.groups}
        node_ids = {n.node_id for n in mendel.index.topology.nodes}
        assert set(plan.groups_contacted) <= group_ids
        assert plan.groups_contacted  # at least one group contacted
        assert set(plan.nodes_fanned_out) <= node_ids
        assert plan.nodes_fanned_out

    def test_subqueries_sum_over_window_groups(self, plan):
        assert plan.subqueries_routed == sum(
            len(route.groups) for route in plan.routes
        )
        assert plan.subqueries_routed == plan.report.stats.subqueries_routed

    def test_stage_timings_tile_the_turnaround(self, plan):
        total = sum(ms for _name, ms in plan.stage_timings)
        assert total == pytest.approx(plan.turnaround_ms, rel=1e-6)

    def test_each_node_names_its_search(self, plan, mendel, planted_probe):
        """At i = 0.6 a window's pigeonhole parts are 2 residues, too short
        to tell these nodes' rows apart: every node ran its vp-tree.  At
        i = 0.8 they are two parts of 4 and every node used part keys."""
        assert set(plan.node_searches) == set(plan.nodes_fanned_out)
        assert set(plan.node_searches.values()) == {"vptree"}
        strict = mendel.explain(planted_probe[0], QueryParams(k=4, n=6, i=0.8))
        assert set(strict.node_searches.values()) == {"parts"}
        assert f"{strict.nodes_fanned_out[0]}=parts" in strict.render()
        assert strict.to_dict()["node_searches"] == strict.node_searches


class TestRoutingIsTheRunsOwn:
    def test_explain_costs_one_routing_pass(self):
        """EXPLAIN reads the routes its run recorded: the prefix tree is
        walked exactly as often as for the plain query."""
        mendel, probe = _small_deployment()
        adapter = mendel.index.prefix_tree._tree.adapter
        before = adapter.pair_evaluations
        mendel.query(probe, PARAMS)
        queried = adapter.pair_evaluations - before
        before = adapter.pair_evaluations
        mendel.explain(probe, PARAMS)
        assert adapter.pair_evaluations - before == queried > 0

    def test_plan_survives_a_topology_change(self):
        """A plan lists the groups its run contacted, not what a fresh
        hash would answer on whatever the topology has become since."""
        mendel, probe = _small_deployment()
        report = mendel.query(probe, PARAMS, trace_ctx=TraceContext())
        contacted = {
            span.name.split(":", 1)[1] for span in report.root_span.walk()
            if span.name.startswith("group:")
        }
        change = mendel.split_group(sorted(contacted)[0])
        plan = build_plan(mendel.index, mendel.engine, probe, PARAMS, report)
        assert plan.subqueries_routed == report.stats.subqueries_routed
        assert set(plan.groups_contacted) == contacted
        assert change.target not in plan.groups_contacted
        # ... while a fresh run is routed over the new topology.
        assert change.target in mendel.explain(
            probe, PARAMS).groups_contacted


class TestRegistryReconciliation:
    def test_funnel_counters_advance_by_plan_counts(self):
        mendel, probe = _small_deployment()
        registry = default_registry()
        family = registry.counter(
            "repro_query_funnel_total",
            "Candidates surviving each stage of the query attrition funnel",
            ("stage",),
        )
        before = {
            stage: family.labels(stage=stage).value
            for stage, _field in FUNNEL_STAGES
        }
        plan = mendel.explain(probe, PARAMS)
        for stage_item in plan.funnel:
            advanced = (
                family.labels(stage=stage_item.stage).value
                - before[stage_item.stage]
            )
            assert advanced == stage_item.count, stage_item.stage


class TestSpanTreeReconciliation:
    def test_node_annotations_sum_to_funnel_counts(self):
        mendel, probe = _small_deployment()
        plan = mendel.explain(probe, PARAMS)
        root = plan.report.root_span
        assert root is not None
        node_spans = [s for s in root.walk() if s.name.startswith("node:")]
        assert node_spans
        for attr, stage in (
            ("candidates", "knn_candidates"),
            ("identity_pass", "identity_pass"),
            ("cscore_pass", "cscore_pass"),
        ):
            total = sum(s.attrs.get(attr, 0) for s in node_spans)
            assert total == plan.stage(stage).count, attr

    def test_top_level_annotations_match_final_stages(self):
        mendel, probe = _small_deployment()
        plan = mendel.explain(probe, PARAMS)
        root = plan.report.root_span
        by_name = {span.name: span for span in root.children}
        assert by_name["fanout"].attrs["anchors_merged"] == (
            plan.stage("anchors_merged").count
        )
        gapped = by_name["gapped"]
        assert gapped.attrs["extensions"] == plan.stage(
            "gapped_extensions"
        ).count
        assert gapped.attrs["alignments"] == plan.stage("alignments").count


class TestDeterminism:
    def test_funnel_is_seed_deterministic(self):
        # Two independent builds of the same deployment under the current
        # CHAOS_SEED must explain the same probe identically.
        mendel_a, probe_a = _small_deployment()
        mendel_b, probe_b = _small_deployment()
        plan_a = mendel_a.explain(probe_a, PARAMS)
        plan_b = mendel_b.explain(probe_b, PARAMS)
        assert [(s.stage, s.count) for s in plan_a.funnel] == [
            (s.stage, s.count) for s in plan_b.funnel
        ]
        assert plan_a.subqueries_routed == plan_b.subqueries_routed
        assert plan_a.groups_contacted == plan_b.groups_contacted
        assert plan_a.turnaround_ms == pytest.approx(plan_b.turnaround_ms)

    def test_to_dict_round_trips_scalar_facts(self):
        mendel, probe = _small_deployment()
        plan = mendel.explain(probe, PARAMS)
        raw = plan.to_dict()
        assert raw["windows"] == plan.windows
        assert raw["subqueries_routed"] == plan.subqueries_routed
        assert [f["count"] for f in raw["funnel"]] == [
            s.count for s in plan.funnel
        ]
        assert raw["degraded"] is False


class TestBuildFunnelEdges:
    def test_empty_report_funnel_is_all_zero(self):
        from repro.core.query import QueryReport, QueryStats

        report = QueryReport(query_id="empty", alignments=[],
                             stats=QueryStats())
        funnel = build_funnel(report)
        assert [s.count for s in funnel] == [0] * len(FUNNEL_STAGES)
        # Zero-count chains must not divide by zero.
        assert all(s.retained == 1.0 for s in funnel)
