"""Fault-tolerance integration tests (replication extension).

The paper lists fault tolerance as future work; this library implements
block replication within storage groups plus failure-aware query fan-out.
These tests kill nodes and verify queries keep finding results.
"""

import json
import os

import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.faults.scenario import run_kill_recover_scenario
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from repro.serve.protocol import report_to_dict

pytestmark = pytest.mark.chaos


@pytest.fixture()
def replicated():
    db = random_set(count=15, length=100, alphabet=PROTEIN, rng=201,
                    id_prefix="ft")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=3, replication=2,
                     sample_size=128, seed=31),
    )
    return mendel, db


class TestReplication:
    def test_blocks_stored_twice(self, replicated):
        mendel, _ = replicated
        total_stored = sum(mendel.stats.per_node_blocks.values())
        assert total_stored == 2 * mendel.block_count

    def test_replicas_in_same_group(self, replicated):
        mendel, _ = replicated
        # Every block id must appear on exactly two nodes, both in one group.
        holders: dict[int, list[str]] = {}
        for node in mendel.index.topology.nodes:
            for block_id in node.block_ids:
                holders.setdefault(block_id, []).append(node.node_id)
        for block_id, nodes in holders.items():
            assert len(nodes) == 2, f"block {block_id} has holders {nodes}"
            groups = {n.split(".")[0] for n in nodes}
            assert len(groups) == 1

    def test_replication_validated_against_group_size(self):
        with pytest.raises(ValueError, match="replication"):
            MendelConfig(group_size=2, replication=3)


class TestFailureSurvival:
    def test_single_node_failure_per_group_preserves_recall(self, replicated):
        mendel, db = replicated
        params = QueryParams(k=4, n=6, i=0.7)
        probes = [
            mutate_to_identity(db.records[i], 0.9, rng=i, seq_id=f"p{i}")
            for i in (2, 7, 11)
        ]
        before = [mendel.query(p, params).best().subject_id for p in probes]

        # Kill one node in every group.
        for group in mendel.index.topology.groups:
            group.nodes[1].fail()

        after = [mendel.query(p, params).best().subject_id for p in probes]
        assert after == before  # replicas answer for the dead primaries

    def test_failure_without_replication_loses_blocks(self):
        db = random_set(count=15, length=100, alphabet=PROTEIN, rng=205,
                        id_prefix="nr")
        mendel = Mendel.build(
            db,
            MendelConfig(group_count=2, group_size=3, replication=1,
                         sample_size=128, seed=33),
        )
        params = QueryParams(k=4, n=6, i=0.7)
        probes = [
            mutate_to_identity(db.records[i], 0.9, rng=i, seq_id=f"q{i}")
            for i in range(10)
        ]
        baseline = sum(
            1 for p in probes
            if (best := mendel.query(p, params).best()) is not None
            and best.subject_id == p.description.split()[2]
        )
        # Kill a node in each group: some primaries are now unreachable.
        for group in mendel.index.topology.groups:
            group.nodes[0].fail()
        surviving = sum(
            1 for p in probes
            if (best := mendel.query(p, params).best()) is not None
        )
        # Queries still run (no crash) even though data is missing.
        assert surviving <= len(probes)
        assert baseline >= 0  # structural sanity

    def test_recovery_restores_service(self, replicated):
        mendel, db = replicated
        params = QueryParams(k=4, n=6, i=0.7)
        probe = mutate_to_identity(db.records[5], 0.9, rng=5, seq_id="rp")
        expected = mendel.query(probe, params).best().subject_id

        victim = mendel.index.topology.groups[0].nodes[0]
        victim.fail()
        assert mendel.query(probe, params).best().subject_id == expected
        victim.recover()
        assert mendel.query(probe, params).best().subject_id == expected

    def test_coordinator_failover(self, replicated):
        mendel, db = replicated
        # Kill the default system entry point (node 0 of group 0): queries
        # must transparently coordinate from another node.
        mendel.index.topology.nodes[0].fail()
        probe = mutate_to_identity(db.records[9], 0.9, rng=9, seq_id="cp")
        report = mendel.query(probe, QueryParams(k=4, n=6, i=0.7))
        assert report.best() is not None
        assert report.best().subject_id == db.records[9].seq_id


class TestCoordinatorPinning:
    def test_entry_point_resolved_once_per_group(self, replicated,
                                                 monkeypatch):
        """Regression: the group coordinator must be pinned once per query,
        not re-resolved per subquery (a node joining/dying mid-query would
        otherwise silently switch coordinators and split the aggregation)."""
        from repro.cluster.group import StorageGroup

        mendel, db = replicated
        calls: dict[str, int] = {}
        original = StorageGroup.entry_point

        def counting(self):
            calls[self.group_id] = calls.get(self.group_id, 0) + 1
            return original(self)

        monkeypatch.setattr(StorageGroup, "entry_point", counting)
        probe = mutate_to_identity(db.records[3], 0.9, rng=3, seq_id="pin")
        report = mendel.query(probe, QueryParams(k=4, n=6, i=0.7))
        assert report.stats.groups_contacted >= 1
        assert calls, "no group was ever contacted"
        for group_id, count in calls.items():
            assert count == 1, (
                f"group {group_id} re-resolved its coordinator {count} times"
            )


class TestRecoveryReconciliation:
    def test_rejoin_leaves_exactly_replication_holders(self, replicated):
        """Regression: StorageNode.recover() used to rejoin with stale block
        copies, leaving blocks over-replicated after the group had already
        re-replicated around the failure."""
        mendel, _ = replicated
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]

        mendel.fail_node(victim.node_id, rereplicate=True)
        mendel.recover_node(victim.node_id)

        holders: dict[int, list[str]] = {}
        for node in group.nodes:
            for block_id in node.block_ids:
                holders.setdefault(block_id, []).append(node.node_id)
        replication = mendel.index.config.replication
        for block_id, nodes in sorted(holders.items()):
            assert len(nodes) == replication, (
                f"block {block_id} has {len(nodes)} holders after rejoin: "
                f"{sorted(nodes)}"
            )

    def test_rereplication_restores_factor_while_node_down(self, replicated):
        mendel, _ = replicated
        group = mendel.index.topology.groups[1]
        victim = group.nodes[2]
        mendel.fail_node(victim.node_id, rereplicate=True)

        alive_holders: dict[int, int] = {}
        for node in group.nodes:
            if not node.alive:
                continue
            for block_id in node.block_ids:
                alive_holders[block_id] = alive_holders.get(block_id, 0) + 1
        assert alive_holders, "group lost all blocks"
        assert all(count == 2 for count in alive_holders.values())
        mendel.recover_node(victim.node_id)


class TestChaosScenario:
    """The acceptance experiment: kill one node per group mid-batch, recover
    later.  ``CHAOS_SEED`` (CI matrix knob) varies the whole derivation."""

    SEED = int(os.environ.get("CHAOS_SEED", "0"))

    @staticmethod
    def _serialize(reports) -> bytes:
        payload = [report_to_dict(report) for report in reports]
        return json.dumps(payload, sort_keys=True).encode()

    def test_replicated_cluster_rides_through_failures(self):
        result = run_kill_recover_scenario(replication=2, seed=self.SEED)
        assert result.min_coverage == 1.0
        assert result.degraded_queries == 0
        # Queries overlapping the failure window still *report* the dead
        # member, but replicas keep them complete.
        for report in result.reports:
            assert report.coverage == 1.0
        assert result.recall == result.baseline_recall
        # The chaos layer actually did something: every victim was detected
        # and its blocks were streamed back to full replication.
        assert result.chaos_summary["deaths_declared"] == len(result.victims)
        assert result.chaos_summary["blocks_streamed"] > 0

    def test_unreplicated_cluster_degrades_honestly(self):
        result = run_kill_recover_scenario(replication=1, seed=self.SEED)
        assert result.min_coverage < 1.0
        assert result.degraded_queries > 0
        for report in result.reports:
            if report.degraded:
                assert report.coverage < 1.0
                assert report.failed_nodes
            else:
                assert report.coverage == 1.0
        # Queries far from the failure window stay complete.
        assert result.degraded_queries < len(result.reports)

    def test_same_seed_replays_byte_identically(self):
        first = run_kill_recover_scenario(replication=1, seed=self.SEED)
        second = run_kill_recover_scenario(replication=1, seed=self.SEED)
        assert self._serialize(first.reports) == self._serialize(second.reports)
        assert first.chaos_log == second.chaos_log
        assert first.chaos_summary == second.chaos_summary
        assert first.recall == second.recall

    def test_different_seed_differs(self):
        base = run_kill_recover_scenario(replication=1, seed=self.SEED)
        other = run_kill_recover_scenario(replication=1, seed=self.SEED + 1)
        assert self._serialize(base.reports) != self._serialize(other.reports)


class TestDeadlinesAndHedging:
    def test_straggler_triggers_hedged_retry(self, replicated):
        """A 100x-slowed node blows the subquery deadline (twice — retry
        included); its replica partner keeps the answer complete."""
        mendel, db = replicated
        params = QueryParams(k=4, n=6, i=0.7)
        probe = mutate_to_identity(db.records[4], 0.9, rng=4, seq_id="slow")
        healthy = mendel.query(probe, params)
        expected = healthy.best().subject_id

        # Above any healthy subquery's time, far below the straggler's 100x.
        deadline = healthy.stats.turnaround * 2
        straggler = mendel.index.topology.groups[0].nodes[1]
        straggler.slow_down(0.01)
        report = mendel.engine.run(probe, params, subquery_deadline=deadline)
        straggler.restore_speed()

        assert report.stats.hedged_retries >= 1
        assert straggler.node_id in report.failed_nodes
        assert report.coverage == 1.0  # replica answered for the straggler
        assert report.degraded is False
        assert report.best().subject_id == expected

    def test_no_deadline_means_no_retries(self, replicated):
        mendel, db = replicated
        probe = mutate_to_identity(db.records[6], 0.9, rng=6, seq_id="calm")
        report = mendel.query(probe, QueryParams(k=4, n=6, i=0.7))
        assert report.stats.hedged_retries == 0
        assert report.coverage == 1.0
        assert report.degraded is False
