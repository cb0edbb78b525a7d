"""Cross-layer consistency properties of the two-tier index.

These pin the invariants that make the distributed design correct: the
indexing path and the query routing path must agree on where data lives,
and the block graph must mirror the sequences exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MendelConfig
from repro.core.index import MendelIndex
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set


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
            stored_group = index.node_of_block[block.block_id].split(".")[0]
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
