"""Tests for index construction (repro.core.index)."""

import pytest

from repro.core.index import MendelIndex
from repro.core.params import MendelConfig
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.records import SequenceSet


def assert_holdings(index, settled=True):
    """Every block sits on ``group.place_replicas(key, replication)`` of the
    group its vp-prefix hash routes to — exactly those nodes once settled,
    at least those while a topology change still retains old copies — its
    primary is the first of them, and ``stats.per_node_blocks`` reads what
    the nodes hold."""
    holders: dict[int, set[str]] = {}
    for node in index.topology.nodes:
        assert len(set(node.block_ids)) == len(node.block_ids), node.node_id
        for block_id in node.block_ids:
            holders.setdefault(block_id, set()).add(node.node_id)
    assert sorted(holders) == [block.block_id for block in index.store.blocks]
    for block in index.store.blocks:
        codes = index.store.codes_of(block.block_id)
        group = index.topology.group_for_prefix(
            index.prefix_tree.hash_one(codes).prefix
        )
        replicas = group.place_replicas(
            index.store.block_key(block.block_id), index.config.replication
        )
        assert index.node_of_block[block.block_id] == replicas[0].node_id
        wanted = {node.node_id for node in replicas}
        if settled:
            assert holders[block.block_id] == wanted, block.block_id
        else:
            assert holders[block.block_id] >= wanted, block.block_id
    assert index.stats.per_node_blocks == {
        node.node_id: len(node.block_ids) for node in index.topology.nodes
    }


def assert_two_tiers(index, block_ids):
    """Each block's primary is the node the two tiers pick for that block
    alone: the group by the recursive, pair-based reference walk
    (``hash_query`` at tolerance 0), the node by ``place_block``."""
    for block_id in block_ids:
        codes = index.store.codes_of(block_id)
        [hashed], _ = index.prefix_tree.hash_query(codes, 0.0)
        expected = index.topology.place_block(
            codes, index.store.block_key(block_id)
        )
        assert expected.group_id == (
            index.topology.group_for_prefix(hashed.prefix).group_id
        )
        assert index.node_of_block[block_id] == expected.node_id, block_id


@pytest.fixture(scope="module")
def small_db():
    return random_set(count=12, length=80, alphabet=PROTEIN, rng=31, id_prefix="x")


@pytest.fixture(scope="module")
def index(small_db):
    return MendelIndex(
        small_db,
        MendelConfig(group_count=3, group_size=2, sample_size=128, seed=9),
    )


class TestConstruction:
    def test_block_count(self, index, small_db):
        w = index.segment_length
        expected = sum(len(r) - w + 1 for r in small_db)
        assert len(index.store) == expected
        assert index.stats.block_count == expected

    def test_every_block_placed_exactly_once(self, index):
        assert set(index.node_of_block) == {
            b.block_id for b in index.store.blocks
        }
        per_node_total = sum(index.stats.per_node_blocks.values())
        assert per_node_total == len(index.store)

    def test_node_trees_hold_their_blocks(self, index):
        assert_holdings(index)
        for node in index.topology.nodes:
            assert len(node.tree) == node.block_count

    def test_placement_respects_two_tiers(self, index):
        # Each block must live on the node the topology assigns it to.
        assert_two_tiers(index, range(len(index.store)))

    def test_stats_populated(self, index):
        assert index.stats.hash_evals > 0
        assert index.stats.insert_evals > 0
        assert index.stats.simulated_makespan > 0

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MendelIndex(SequenceSet(alphabet=PROTEIN), MendelConfig())

    def test_too_short_sequences_rejected(self):
        db = random_set(count=3, length=4, alphabet=PROTEIN, rng=1)
        with pytest.raises(ValueError, match="fewer than 2 index blocks"):
            MendelIndex(db, MendelConfig(segment_length=16))

    def test_node_lookup(self, index):
        node = index.topology.nodes[3]
        assert index.node(node.node_id) is node
        with pytest.raises(KeyError):
            index.node("missing")

    def test_load_fractions(self, index):
        fractions = index.load_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestIncrementalInsert:
    def test_insert_sequences(self, small_db):
        index = MendelIndex(
            small_db,
            MendelConfig(group_count=2, group_size=2, sample_size=128, seed=10),
        )
        before = len(index.store)
        extra = random_set(count=3, length=60, alphabet=PROTEIN, rng=77, id_prefix="new")
        index.insert_sequences(extra)
        assert len(index.store) > before
        assert index.stats.block_count == len(index.store)
        assert_holdings(index)
        assert_two_tiers(index, range(before, len(index.store)))
        # New blocks must be searchable.
        new_block = next(index.store.blocks_of_sequence("new-000000"))
        codes = index.store.codes_of(new_block.block_id)
        node_id = index.node_of_block[new_block.block_id]
        node = index.node(node_id)
        [(hits, _)] = node.local_knn(codes[None, :], 1)
        assert hits[0][0] == 0.0

    def test_alphabet_mismatch_rejected(self, small_db):
        from repro.seq.alphabet import DNA

        index = MendelIndex(
            small_db,
            MendelConfig(group_count=2, group_size=2, sample_size=64, seed=11),
        )
        dna = random_set(count=2, length=40, alphabet=DNA, rng=5)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            index.insert_sequences(dna)


class TestLifetime:
    def test_a_dropped_index_is_freed_without_the_cycle_collector(
        self, small_db, tmp_path
    ):
        """Nothing an index owns points back at it (its metric factory used
        to be a closure over ``self``), so dropping the last reference frees
        the store, the nodes and their trees at once — a benchmark or
        service that rebuilds deployments does not hold two of them until a
        full collection happens to run.  Searched first, so the flattened
        trees exist; built and loaded from an archive alike."""
        import gc
        import weakref

        from repro.core.persist import load_index, save_index

        config = MendelConfig(group_count=2, group_size=2, sample_size=64, seed=11)
        save_index(MendelIndex(small_db, config), tmp_path / "index.npz")

        def searched_then_dropped(index):
            node = index.topology.nodes[0]
            node.local_knn(index.store.codes_matrix([0, 1]), 3, max_radius=20.0)
            node.local_knn(index.store.codes_matrix([0, 1]), 3)
            assert node.tree._flat is not None
            return [weakref.ref(obj) for obj in
                    (index, index.store, index.topology, node, node.tree)]

        gc.collect()
        gc.disable()
        try:
            for make in (lambda: MendelIndex(small_db, config),
                         lambda: load_index(tmp_path / "index.npz")):
                alive = searched_then_dropped(make())
                assert [ref() for ref in alive] == [None] * 5
        finally:
            gc.enable()
