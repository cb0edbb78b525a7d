"""Integration tests for elastic cluster growth and query tracing."""

import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.obs.trace import TraceContext
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity


@pytest.fixture()
def deployment():
    db = random_set(count=12, length=100, alphabet=PROTEIN, rng=501,
                    id_prefix="e")
    mendel = Mendel.build(
        db, MendelConfig(group_count=2, group_size=2, sample_size=128, seed=41)
    )
    return mendel, db


class TestAddNode:
    def test_group_grows_and_serves(self, deployment):
        mendel, db = deployment
        params = QueryParams(k=4, n=6, i=0.7)
        probe = mutate_to_identity(db.records[4], 0.9, rng=1, seq_id="p")
        expected = mendel.query(probe, params).best().subject_id

        node = mendel.add_node("g00")
        assert node.node_id == "g00.n2"
        assert len(mendel.index.topology.group("g00")) == 3
        assert mendel.query(probe, params).best().subject_id == expected

    def test_blocks_conserved_and_rebalanced(self, deployment):
        mendel, _ = deployment
        group = mendel.index.topology.group("g00")
        before = {b for n in group.nodes for b in n.block_ids}
        mendel.add_node("g00")
        after = {b for n in group.nodes for b in n.block_ids}
        assert after == before  # no block lost or invented
        # The new node actually holds a fair share.
        counts = [n.block_count for n in group.nodes]
        assert min(counts) > 0.15 * max(counts)

    def test_only_target_group_touched(self, deployment):
        mendel, _ = deployment
        other = mendel.index.topology.group("g01")
        snapshot = {n.node_id: list(n.block_ids) for n in other.nodes}
        mendel.add_node("g00")
        assert {n.node_id: list(n.block_ids) for n in other.nodes} == snapshot

    def test_placement_map_consistent(self, deployment):
        mendel, _ = deployment
        mendel.add_node("g00")
        group = mendel.index.topology.group("g00")
        holders = {b for n in group.nodes for b in n.block_ids}
        for block_id in holders:
            primary = mendel.index.node_of_block[block_id]
            assert primary in {n.node_id for n in group.nodes}
            assert block_id in group.node(primary).block_ids

    def test_growth_after_a_removal_takes_a_free_id(self, deployment):
        """With g00.n0 removed, the group's size names g00.n1 — a member:
        the new node takes the next id no member holds."""
        mendel, _ = deployment
        mendel.add_node("g00")
        mendel.remove_node("g00.n0")
        node = mendel.add_node("g00")
        assert node.node_id == "g00.n3"
        assert [n.node_id for n in mendel.index.topology.group("g00").nodes] == [
            "g00.n1", "g00.n2", "g00.n3"
        ]

    def test_unknown_group_rejected(self, deployment):
        mendel, _ = deployment
        with pytest.raises(KeyError):
            mendel.add_node("g99")

    def test_repeated_growth(self, deployment):
        mendel, db = deployment
        for _ in range(3):
            mendel.add_node("g01")
        assert len(mendel.index.topology.group("g01")) == 5
        probe = mutate_to_identity(db.records[9], 0.9, rng=2, seq_id="q")
        report = mendel.query(probe, QueryParams(k=4, n=6, i=0.7))
        assert report.best().subject_id == db.records[9].seq_id


class TestTracing:
    def test_span_tree_render(self, deployment):
        mendel, db = deployment
        probe = mutate_to_identity(db.records[2], 0.9, rng=3, seq_id="t")
        report = mendel.query(probe, QueryParams(k=4, n=4, i=0.7),
                              trace_ctx=TraceContext())
        lines = report.root_span.format_tree().splitlines()
        assert " ms " in lines[0] and "query:t" in lines[0]
        assert "receive" in lines[1] and "reply" in lines[-1]
