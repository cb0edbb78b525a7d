"""Tests for the vp-prefix tree LSH (repro.vptree.prefix)."""

import os

import numpy as np
import pytest

from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.distance import default_distance
from repro.seq.mutate import mutate_to_identity
from repro.seq.records import SequenceRecord
from repro.vptree.prefix import VPPrefixTree

SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def sample():
    return np.random.default_rng(0).integers(0, 20, (400, 8)).astype(np.uint8)


@pytest.fixture(scope="module")
def prefix_tree(sample):
    return VPPrefixTree(
        sample, default_distance(PROTEIN), depth_threshold=4, rng=1
    )


class TestConstruction:
    def test_default_threshold_is_half_depth(self, sample):
        t = VPPrefixTree(sample, default_distance(PROTEIN), rng=2)
        assert t.depth_threshold == max(1, t.tree_depth // 2)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            VPPrefixTree(
                np.zeros((1, 8), dtype=np.uint8), default_distance(PROTEIN)
            )

    def test_bad_threshold(self, sample):
        with pytest.raises(ValueError, match="depth_threshold"):
            VPPrefixTree(sample, default_distance(PROTEIN), depth_threshold=0)


class TestHashOne:
    def test_deterministic(self, prefix_tree, sample):
        a = prefix_tree.hash_one(sample[10])
        b = prefix_tree.hash_one(sample[10])
        assert a == b

    def test_depth_bounded_by_threshold(self, prefix_tree, sample):
        for row in sample[:50]:
            assert prefix_tree.hash_one(row).depth <= prefix_tree.depth_threshold

    def test_prefix_in_frontier(self, prefix_tree, sample):
        frontier = set(prefix_tree.all_prefixes())
        for row in sample[:100]:
            assert prefix_tree.hash_one(row).prefix in frontier

    def test_wrong_length_rejected(self, prefix_tree):
        with pytest.raises(ValueError, match="segment length"):
            prefix_tree.hash_one(np.zeros(3, dtype=np.uint8))

    def test_locality_identical_points_collide(self, prefix_tree, sample):
        # The LSH property the design depends on: identical (and very close)
        # segments hash to the same group prefix.
        a = prefix_tree.hash_one(sample[42])
        b = prefix_tree.hash_one(sample[42].copy())
        assert a.prefix == b.prefix

    def test_locality_similar_collide_more_than_random(self, prefix_tree):
        rng = np.random.default_rng(7)
        same = 0
        random_same = 0
        trials = 120
        for t in range(trials):
            base = rng.integers(0, 20, 8).astype(np.uint8)
            rec = SequenceRecord(seq_id="x", codes=base, alphabet=PROTEIN)
            near = mutate_to_identity(rec, 0.875, rng=rng).codes  # 1 mismatch
            far = rng.integers(0, 20, 8).astype(np.uint8)
            h0 = prefix_tree.hash_one(base).prefix
            if prefix_tree.hash_one(near).prefix == h0:
                same += 1
            if prefix_tree.hash_one(far).prefix == h0:
                random_same += 1
        assert same > random_same


class TestHashMany:
    """The batched single-path descent against the recursive, pair-based
    ``hash_query(row, 0.0)`` walk, its independent reference, on rows drawn
    with ``CHAOS_SEED`` (the CI matrix knob)."""

    @pytest.fixture(params=[PROTEIN, DNA], ids=["protein-matrix", "dna-hamming"])
    def drawn(self, request):
        """A fresh tree (tests refine it) over a drawn sample, and drawn
        rows: sample rows and random rows, in random order.  DNA's four
        letters put many rows exactly on a vertex's ``mu``."""
        alphabet = request.param
        rng = np.random.default_rng(SEED)
        sample = rng.integers(0, alphabet.canonical_size, (300, 10)).astype(
            np.uint8
        )
        tree = VPPrefixTree(
            sample,
            default_distance(alphabet),
            depth_threshold=3,
            rng=int(rng.integers(0, 2**31 - 1)),
        )
        rows = np.concatenate([
            sample[rng.choice(len(sample), 120, replace=False)],
            rng.integers(0, alphabet.canonical_size, (40, 10)).astype(np.uint8),
        ])
        return tree, rows[rng.permutation(len(rows))]

    @staticmethod
    def assert_matches_reference(tree, rows):
        adapter = tree._tree.adapter
        before = adapter.pair_evaluations
        prefixes, depths = tree.hash_many(rows)
        assert adapter.pair_evaluations - before == depths.sum()
        assert prefixes.dtype == depths.dtype == np.int64
        assert prefixes.shape == depths.shape == (len(rows),)
        for row, prefix, depth in zip(rows, prefixes, depths):
            [reference], evals = tree.hash_query(row, 0.0)
            assert (prefix, depth) == (reference.prefix, reference.depth)
            assert evals == depth

    def test_equals_the_recursive_walk(self, drawn):
        tree, rows = drawn
        self.assert_matches_reference(tree, rows)

    def test_equals_the_recursive_walk_after_refine(self, drawn):
        tree, rows = drawn
        prefixes, _ = tree.hash_many(rows)
        refined = 0
        for prefix in sorted(set(prefixes.tolist())):
            if not tree._frontier_node(prefix).is_leaf:
                tree.refine(prefix)
                refined += 1
        assert refined
        after, depths = tree.hash_many(rows)
        assert (depths > tree.depth_threshold).any()
        assert set(after.tolist()) <= set(tree.all_prefixes())
        self.assert_matches_reference(tree, rows)

    def test_single_row_and_empty_batches(self, drawn):
        tree, rows = drawn
        for row in rows[:10]:
            self.assert_matches_reference(tree, row[None, :])
            prefixes, depths = tree.hash_many(row[None, :])
            hashed = tree.hash_one(row)
            assert (hashed.prefix, hashed.depth) == (prefixes[0], depths[0])
        self.assert_matches_reference(tree, rows[:0])

    def test_wrong_shape_rejected(self, drawn):
        tree, rows = drawn
        for bad in (rows[0], rows[:, :-1], rows[:, :, None], rows[None, :, :]):
            with pytest.raises(ValueError, match="segment length"):
                tree.hash_many(bad)


class TestHashQuery:
    def test_zero_tolerance_matches_hash_one(self, prefix_tree, sample):
        for row in sample[:30]:
            hashes, evals = prefix_tree.hash_query(row, 0.0)
            assert hashes == [prefix_tree.hash_one(row)]
            assert evals == hashes[0].depth

    def test_returned_evals_are_the_evaluations_made(self, prefix_tree, sample):
        """The walk counts its own distance evaluations: the figure it
        returns is what the metric adapter's lifetime total advanced by."""
        adapter = prefix_tree._tree.adapter
        for row, tol in zip(sample[:40], [0.0, 4.0, 12.0, 30.0, 1e9] * 8):
            before = adapter.pair_evaluations
            _, evals = prefix_tree.hash_query(row, tol)
            assert evals == adapter.pair_evaluations - before > 0
            before = adapter.pair_evaluations
            assert (prefix_tree.hash_one(row).depth
                    == adapter.pair_evaluations - before)

    def test_superset_of_single_path(self, prefix_tree, sample):
        for row in sample[:30]:
            single = prefix_tree.hash_one(row).prefix
            branched = {h.prefix for h in prefix_tree.hash_query(row, 8.0)[0]}
            assert single in branched

    def test_monotone_in_tolerance(self, prefix_tree, sample):
        row = sample[3]
        walks = [prefix_tree.hash_query(row, tol) for tol in (0.0, 4.0, 12.0, 1e9)]
        sizes = [len(hashes) for hashes, _ in walks]
        assert sizes == sorted(sizes)
        assert [evals for _, evals in walks] == sorted(evals for _, evals in walks)

    def test_huge_tolerance_reaches_full_frontier(self, prefix_tree, sample):
        row = sample[5]
        all_reached = {h.prefix for h in prefix_tree.hash_query(row, 1e9)[0]}
        assert all_reached == set(prefix_tree.all_prefixes())

    def test_negative_tolerance_rejected(self, prefix_tree, sample):
        with pytest.raises(ValueError, match="tolerance"):
            prefix_tree.hash_query(sample[0], -1.0)

    def test_no_duplicate_prefixes(self, prefix_tree, sample):
        out = [h.prefix for h in prefix_tree.hash_query(sample[8], 20.0)[0]]
        assert len(out) == len(set(out))


class TestFrontier:
    def test_prefixes_unique(self, prefix_tree):
        frontier = prefix_tree.all_prefixes()
        assert len(frontier) == len(set(frontier))

    def test_prefix_encodes_depth(self, prefix_tree):
        # A prefix at depth d lies in [2^d, 2^(d+1)).
        for prefix in prefix_tree.all_prefixes():
            assert prefix >= 1
            depth = prefix.bit_length() - 1
            assert depth <= prefix_tree.depth_threshold

    def test_in_order_adjacency(self, prefix_tree):
        # In-order enumeration yields strictly increasing path-sortable
        # values within each depth level; adjacent entries share long
        # common path prefixes more often than random pairs do.
        frontier = prefix_tree.all_prefixes()
        assert len(frontier) >= 2
