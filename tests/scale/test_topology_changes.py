"""Two-phase topology mutations: expand, drain, split, merge."""

from __future__ import annotations

import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.obs.metrics import default_registry
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from tests.core.test_index import assert_holdings, assert_two_tiers


def build(group_count=2, group_size=2, replication=1, seed=47, count=12):
    db = random_set(count=count, length=100, alphabet=PROTEIN, rng=700 + seed,
                    id_prefix="t")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=group_count, group_size=group_size,
                     replication=replication, sample_size=128, seed=seed),
    )
    return mendel, db


def all_blocks(index):
    return {b for n in index.topology.nodes for b in n.block_ids}


def moved_by(index, change):
    """The blocks a settled split put on its new group."""
    group = index.topology.group(change.target)
    moved = sorted({bid for node in group.nodes for bid in node.block_ids})
    assert len(moved) == change.moved_blocks > 0
    return moved


def replication_holds(index):
    """Every block is on >= replication live nodes."""
    holders: dict[int, int] = {}
    for node in index.topology.nodes:
        for bid in node.block_ids:
            holders[bid] = holders.get(bid, 0) + 1
    return all(c >= index.config.replication for c in holders.values())


def probe_answer(mendel, db, rng=3):
    probe = mutate_to_identity(db.records[2], 0.9, rng=rng, seq_id="p")
    report = mendel.query(probe, QueryParams(k=4, n=6, i=0.7))
    return [(a.subject_id, a.score) for a in report.alignments]


class TestExpandGroup:
    def test_unsettled_keeps_dual_ownership(self):
        mendel, _ = build()
        index = mendel.index
        group = index.topology.group("g00")
        held_before = {n.node_id: set(n.block_ids) for n in group.nodes}
        change = index.expand_group("g00", settle=False)
        assert change.kind == "node_added"
        assert not change.settled
        # Old holders keep every copy until settle; the new node has its
        # share already — dual ownership.
        for node in group.nodes:
            if node.node_id in held_before:
                assert held_before[node.node_id] <= set(node.block_ids)
        new = group.node(change.target)
        assert new.block_count > 0
        assert_holdings(index, settled=False)
        change.settle()
        assert change.settled
        assert_holdings(index)
        # After settle the canonical layout holds: no node keeps blocks the
        # placement hash no longer assigns to it.
        total = sum(n.block_count for n in group.nodes)
        assert total == len(
            {b for s in held_before.values() for b in s}
        ) * index.config.replication
        change.settle()  # idempotent

    def test_settle_preserves_query_answers(self):
        mendel, db = build()
        expected = probe_answer(mendel, db)
        change = mendel.index.expand_group("g00", settle=False)
        assert probe_answer(mendel, db) == expected  # dual ownership
        change.settle()
        assert probe_answer(mendel, db) == expected  # canonical layout

    def test_unknown_group_raises(self):
        mendel, _ = build()
        with pytest.raises(KeyError):
            mendel.index.expand_group("g99")


class TestRemoveNode:
    def test_drain_preserves_blocks_and_replication(self):
        mendel, db = build(replication=2, group_size=3)
        index = mendel.index
        expected = probe_answer(mendel, db)
        before = all_blocks(index)
        node = index.remove_node("g00.n2")
        assert node.block_count == 0  # storage released
        assert all_blocks(index) == before
        assert replication_holds(index)
        assert_holdings(index)
        assert probe_answer(mendel, db) == expected

    def test_refuses_to_violate_replication(self):
        mendel, _ = build(replication=2, group_size=2)
        with pytest.raises(ValueError, match="replication"):
            mendel.index.remove_node("g00.n1")

    def test_purges_labelled_series(self):
        mendel, _ = build(group_size=3)
        registry = default_registry()
        family = registry.counter(
            "test_scale_purge_total", "scratch", ("node",)
        )
        family.labels(node="g00.n2").inc()
        family.labels(node="g00.n0").inc()
        mendel.index.remove_node("g00.n2")
        snapshot = {
            dict(s.labels).get("node")
            for fam in registry.collect() if fam.name == "test_scale_purge_total"
            for s in fam.samples
        }
        assert snapshot == {"g00.n0"}


class TestSplitGroup:
    def test_split_moves_mass_and_keeps_answers(self):
        mendel, db = build(group_count=1, count=16)
        index = mendel.index
        expected = probe_answer(mendel, db)
        groups_before = len(index.topology.groups)
        change = index.split_group("g00", settle=False)
        assert change.kind == "group_split"
        assert len(index.topology.groups) == groups_before + 1
        assert change.moved_blocks > 0
        assert_holdings(index, settled=False)
        assert probe_answer(mendel, db) == expected  # dual ownership
        change.settle()
        assert_holdings(index)
        assert_two_tiers(index, moved_by(index, change))
        assert probe_answer(mendel, db) == expected
        # The mass actually moved off the source after settle.
        source = index.topology.group("g00")
        target = index.topology.group(change.target)
        assert target.block_count > 0
        assert source.block_count > 0

    def test_single_prefix_group_refines_the_tree(self):
        # prefix_depth=1 gives a two-prefix frontier over one group; the
        # first split cuts it in two single-prefix groups, so the next
        # split must refine the vp-prefix tree one level deeper.
        db = random_set(count=16, length=100, alphabet=PROTEIN, rng=755,
                        id_prefix="t")
        mendel = Mendel.build(
            db, MendelConfig(group_count=1, group_size=2, sample_size=128,
                             seed=47, prefix_depth=1),
        )
        index = mendel.index
        index.split_group("g00")
        gid = max(
            (g.group_id for g in index.topology.groups),
            key=lambda g: index.topology.group(g).block_count,
        )
        assert len(index.topology.prefixes_of(gid)) == 1
        change = index.split_group(gid)
        assert change.refined is not None
        left, right = change.refined
        assert left != right
        assert_holdings(index)
        assert_two_tiers(index, moved_by(index, change))
        # Both children are routable and every block is findable.
        for bid, node_id in index.node_of_block.items():
            group = index.topology.group(node_id.split(".", 1)[0])
            assert bid in set(group.node(node_id).block_ids)

    def test_routing_covers_every_block_after_split(self):
        mendel, _ = build(group_count=1, count=16)
        index = mendel.index
        index.split_group("g00")
        for bid, node_id in index.node_of_block.items():
            gid = node_id.split(".", 1)[0]
            group = index.topology.group(gid)
            assert bid in set(group.node(node_id).block_ids)


class TestMergeGroups:
    def test_merge_retires_source_and_keeps_answers(self):
        mendel, db = build(group_count=2)
        index = mendel.index
        expected = probe_answer(mendel, db)
        blocks_before = all_blocks(index)
        source_nodes = [n for n in index.topology.group("g01").nodes]
        change = index.merge_groups("g01", "g00", settle=False)
        assert change.kind == "group_merged"
        assert "g01" not in {g.group_id for g in index.topology.groups}
        # Source nodes keep their retained copies until settle.
        assert any(n.block_count > 0 for n in source_nodes)
        assert_holdings(index)  # the source left the topology
        assert probe_answer(mendel, db) == expected
        change.settle()
        assert all(n.block_count == 0 for n in source_nodes)
        assert_holdings(index)
        assert all_blocks(index) == blocks_before
        assert probe_answer(mendel, db) == expected

    def test_merge_into_itself_rejected(self):
        mendel, _ = build()
        with pytest.raises(ValueError, match="itself"):
            mendel.index.merge_groups("g00", "g00")

    def test_facade_roundtrip_split_then_merge(self):
        mendel, db = build(group_count=1, count=16)
        expected = probe_answer(mendel, db)
        change = mendel.split_group("g00")
        mendel.merge_groups(change.target, "g00")
        assert probe_answer(mendel, db) == expected
        assert len(mendel.index.topology.groups) == 1
