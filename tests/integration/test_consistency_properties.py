"""Cross-layer consistency properties of the two-tier index.

These pin the invariants that make the distributed design correct: the
indexing path and the query routing path must agree on where data lives,
the placement record must say where every block lives after any topology
change, and the block graph must mirror the sequences exactly.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core import MendelConfig
from repro.core.index import MendelIndex
from repro.core.persist import load_index, save_index
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set

SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def index():
    db = random_set(count=15, length=90, alphabet=PROTEIN, rng=951,
                    id_prefix="cp")
    return MendelIndex(
        db, MendelConfig(group_count=3, group_size=2, sample_size=256, seed=15)
    )


class TestRoutingConsistency:
    def test_index_and_query_paths_agree(self, index):
        """The group a block was stored in must be among the groups the
        query router returns for that block's exact codes (tolerance 0):
        otherwise exact matches could be unreachable."""
        for block in index.store.blocks[::37]:
            codes = index.store.codes_of(block.block_id)
            [stored_group] = [
                group_id
                for group_id, placed in index.blocks_of_group.items()
                if block.block_id in placed
            ]
            routed = [
                g.group_id
                for g in index.topology.route(codes, tolerance=0.0).groups
            ]
            assert stored_group in routed

    def test_every_hash_lands_in_assignment(self, index):
        frontier = set(index.topology.prefix_assignment)
        rng = np.random.default_rng(3)
        for _ in range(200):
            probe = rng.integers(0, 20, index.segment_length).astype(np.uint8)
            assert index.prefix_tree.hash_one(probe).prefix in frontier

    def test_exact_block_is_its_own_nearest_neighbour(self, index):
        for block in index.store.blocks[::53]:
            codes = index.store.codes_of(block.block_id)
            node = index.node(index.node_of_block[block.block_id])
            [(hits, _)], _ = node.local_knn(codes[None, :], 1)
            assert hits[0][0] == 0.0


class TestBlockGraph:
    def test_blocks_reconstruct_sequences(self, index):
        """Walking next_id from a sequence's first block and taking the
        first residue of each block (plus the final block's tail) must
        reproduce the original sequence exactly."""
        for record in index.database:
            blocks = list(index.store.blocks_of_sequence(record.seq_id))
            if not blocks:
                continue
            rebuilt = [int(index.store.codes_of(b.block_id)[0]) for b in blocks]
            rebuilt.extend(int(c) for c in index.store.codes_of(blocks[-1].block_id)[1:])
            assert np.array_equal(
                np.array(rebuilt, dtype=np.uint8), record.codes
            )

    def test_neighbour_walk_covers_sequence(self, index):
        record = index.database.records[0]
        blocks = list(index.store.blocks_of_sequence(record.seq_id))
        current = blocks[0]
        visited = 1
        while current.next_id != -1:
            current = index.store.block(current.next_id)
            visited += 1
        assert visited == len(blocks)
        assert current.end == len(record)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 10_000))
def test_tolerance_zero_routing_is_deterministic(index, seed):
    rng = np.random.default_rng(seed)
    probe = rng.integers(0, 20, index.segment_length).astype(np.uint8)
    a = [g.group_id for g in index.topology.route(probe, 0.0).groups]
    b = [g.group_id for g in index.topology.route(probe, 0.0).groups]
    assert a == b and len(a) == 1


def assert_placement_record(index: MendelIndex) -> None:
    """The per-group sets partition every block id, one set per group of
    the topology, and each block's set is the group of its primary."""
    placed = index.blocks_of_group
    assert sorted(placed) == sorted(g.group_id for g in index.topology.groups)
    ids = sorted(block_id for blocks in placed.values() for block_id in blocks)
    assert ids == list(range(len(index.store)))
    group_of = {node.node_id: node.group_id for node in index.topology.nodes}
    for group_id, blocks in placed.items():
        for block_id in blocks:
            assert group_of[index.node_of_block[block_id]] == group_id


TOPOLOGY_STEPS = ("insert", "expand", "remove", "split", "merge")


@pytest.mark.chaos
@seed(SEED)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_placement_record_survives_every_placement_step(data):
    """Build, save and load, then a drawn run of inserts, expansions
    (settled or not), node removals, splits (settled or not) and merges:
    the record is checked after each step, and while a change is still
    unsettled."""
    built = MendelIndex(
        random_set(count=8, length=60, alphabet=PROTEIN, rng=data.draw(
            st.integers(0, 2**16), label="corpus"), id_prefix="pl"),
        MendelConfig(group_count=2, group_size=3, replication=2,
                     sample_size=64, seed=data.draw(st.integers(0, 99))),
    )
    assert_placement_record(built)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "placed.npz"
        save_index(built, path)
        index = load_index(path)
    assert index.node_of_block == built.node_of_block
    assert index.blocks_of_group == built.blocks_of_group

    steps = data.draw(st.lists(st.sampled_from(TOPOLOGY_STEPS), min_size=1,
                               max_size=5), label="steps")
    for number, step in enumerate(steps):
        groups = [g.group_id for g in index.topology.groups]
        settle = data.draw(st.booleans(), label=f"{step} settles")
        change = None
        if step == "insert":
            index.insert_sequences(random_set(
                count=2, length=60, alphabet=PROTEIN, rng=number,
                id_prefix=f"new{number}-"))
        elif step == "expand":
            change = index.expand_group(data.draw(st.sampled_from(groups)),
                                        settle=settle)
        elif step == "remove":
            removable = [
                node.node_id for g in index.topology.groups
                if len(g.nodes) > index.config.replication for node in g.nodes
            ]
            if removable:
                index.remove_node(data.draw(st.sampled_from(removable)))
        elif step == "split":
            change = index.split_group(data.draw(st.sampled_from(groups)),
                                       settle=settle)
        elif len(groups) > 1:
            source, target = data.draw(st.permutations(groups))[:2]
            change = index.merge_groups(source, target, settle=settle)
        assert_placement_record(index)
        if change is not None and not change.settled:
            change.settle()
            assert_placement_record(index)
