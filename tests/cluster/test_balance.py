"""Balance auditor tests: statistics, caching, metrics, and Fig. 5's shape.

The Fig. 5 claim at laptop scale: within each group the flat SHA-1 tier
spreads blocks near-uniformly (intra-group CV small), while tier-1's
similarity clustering leaves visible group-level skew — so the group-level
CV clearly dominates the mean intra-group CV.
"""

import pytest

from repro.cluster.balance import (
    BalanceAuditor,
    audit,
    coefficient_of_variation,
    gini,
)
from repro.core import Mendel, MendelConfig
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.seq import PROTEIN, random_set


class TestStatistics:
    def test_cv_of_uniform_is_zero(self):
        assert coefficient_of_variation([5, 5, 5, 5]) == 0.0

    def test_cv_of_known_distribution(self):
        # mean 2, population stddev 1 -> CV 0.5
        assert coefficient_of_variation([1, 3, 1, 3]) == pytest.approx(0.5)

    def test_cv_degenerate_inputs(self):
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([0, 0, 0]) == 0.0

    def test_gini_of_uniform_is_zero(self):
        assert gini([7, 7, 7]) == 0.0

    def test_gini_of_total_concentration(self):
        # One holder owns everything: Gini -> (n-1)/n.
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_gini_degenerate_inputs(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_gini_is_scale_invariant(self):
        values = [1, 2, 3, 4, 10]
        assert gini(values) == pytest.approx(gini([10 * v for v in values]))


@pytest.fixture(scope="module")
def deployment():
    db = random_set(count=40, length=200, alphabet=PROTEIN, rng=811,
                    id_prefix="b")
    return Mendel.build(
        db, MendelConfig(group_count=4, group_size=3, sample_size=512, seed=9)
    )


class TestAudit:
    def test_counts_cover_every_block_once(self, deployment):
        report = audit(deployment.index)
        assert report.total_blocks == len(deployment.index.node_of_block)
        assert sum(report.per_node.values()) == report.total_blocks
        assert sum(report.per_group.values()) == report.total_blocks
        assert sum(report.per_prefix.values()) == len(deployment.index.store)

    def test_every_node_and_group_is_listed(self, deployment):
        report = audit(deployment.index)
        assert set(report.per_node) == {
            n.node_id for n in deployment.index.topology.nodes
        }
        assert set(report.per_group) == {
            g.group_id for g in deployment.index.topology.groups
        }

    def test_fig5_shape(self, deployment):
        """Tier-2 near-uniform, tier-1 visibly skewed (the Fig. 5 trade)."""
        report = audit(deployment.index)
        # Flat SHA-1 tier: every group spreads its blocks with small CV.
        assert report.mean_intra_group_cv < 0.25
        # Tier-1 similarity clustering leaves non-trivial group skew that
        # clearly dominates the intra-group spread.
        assert report.group_cv > 2 * report.mean_intra_group_cv
        assert report.group_cv > 0.05

    def test_report_serialises(self, deployment):
        import json

        raw = audit(deployment.index).to_dict()
        text = json.dumps(raw)  # everything JSON-clean, prefix keys included
        assert "per_prefix" in text
        assert raw["node_cv"] == pytest.approx(
            audit(deployment.index).node_cv, abs=1e-6
        )
        summary = audit(deployment.index).summary()
        assert set(summary) <= set(raw)

    def test_render_mentions_every_group(self, deployment):
        text = audit(deployment.index).render()
        for group in deployment.index.topology.groups:
            assert group.group_id in text


class TestAuditorCaching:
    def test_cache_hits_until_version_moves(self, deployment):
        auditor = BalanceAuditor(deployment.index)
        first = auditor.report()
        assert auditor.report() is first  # same object: cache hit
        deployment.index.version += 1
        try:
            second = auditor.report()
            assert second is not first
            assert second.index_version == deployment.index.version
        finally:
            deployment.index.version -= 1

    def test_mendel_facade(self, deployment):
        report = deployment.balance()
        assert report.total_blocks > 0
        assert deployment.balance() is report  # cached via the facade too


class TestMetricsSurface:
    def test_install_exposes_gauges_and_uninstall_removes(self, deployment):
        registry = MetricsRegistry()
        auditor = BalanceAuditor(deployment.index)
        auditor.install(registry)
        text = prometheus_text(registry)
        assert "repro_balance_group_cv" in text
        assert 'repro_balance_node_blocks{node="g00.n0"}' in text
        assert "repro_balance_max_load_fraction" in text
        auditor.uninstall()
        assert "repro_balance_group_cv" not in prometheus_text(registry)

    def test_install_is_refcounted(self, deployment):
        registry = MetricsRegistry()
        auditor = BalanceAuditor(deployment.index)
        auditor.install(registry)
        auditor.install(registry)  # second service over the same deployment
        auditor.uninstall()
        assert "repro_balance_group_cv" in prometheus_text(registry)
        auditor.uninstall()
        assert "repro_balance_group_cv" not in prometheus_text(registry)

    def test_gauge_values_match_the_report(self, deployment):
        registry = MetricsRegistry()
        auditor = BalanceAuditor(deployment.index)
        auditor.install(registry)
        report = auditor.report()
        families = {f.name: f for f in registry.collect()}
        sample = families["repro_balance_group_cv"].samples[0]
        assert sample.value == pytest.approx(report.group_cv)
        node_samples = {
            dict(s.labels)["node"]: s.value
            for s in families["repro_balance_node_blocks"].samples
        }
        assert node_samples == {
            node: float(count) for node, count in report.per_node.items()
        }
        auditor.uninstall()


class TestServeSurfaces:
    def test_health_and_snapshot_carry_balance(self, deployment):
        service = deployment.service()
        try:
            health = service.health()
            assert health["balance"]["total_blocks"] > 0
            assert "group_cv" in health["balance"]
            snapshot = service.snapshot()
            assert snapshot["balance"] == health["balance"]
        finally:
            service.close()
