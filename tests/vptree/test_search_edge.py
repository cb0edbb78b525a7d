"""Edge-case tests for vp-tree search (repro.vptree.search) and for the
oracle's k-best heap (tests/vptree/recursive_walk.py)."""

import numpy as np
import pytest

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from tests.vptree.recursive_walk import KBest
from repro.vptree import DynamicVPTree
from repro.vptree.tree import VPTree


class TestKBest:
    def test_tau_unbounded_until_full(self):
        best = KBest(3)
        assert best.tau == float("inf")
        best.offer(5.0, 1)
        best.offer(2.0, 2)
        assert best.tau == float("inf")
        best.offer(9.0, 3)
        assert best.tau == 9.0

    def test_tau_shrinks(self):
        best = KBest(2)
        best.offer(9.0, 1)
        best.offer(5.0, 2)
        assert best.tau == 9.0
        best.offer(1.0, 3)
        assert best.tau == 5.0

    def test_max_radius_caps_tau_and_entries(self):
        best = KBest(5, max_radius=3.0)
        assert best.tau == 3.0
        best.offer(10.0, 1)  # rejected
        best.offer(2.0, 2)
        assert best.sorted_items() == [(2.0, 2)]

    def test_boundary_distance_accepted(self):
        best = KBest(2, max_radius=3.0)
        best.offer(3.0, 1)
        assert best.sorted_items() == [(3.0, 1)]

    def test_offer_batch_matches_sequential(self):
        rng = np.random.default_rng(3)
        dists = rng.random(50) * 10
        a = KBest(7)
        b = KBest(7)
        for i, d in enumerate(dists):
            a.offer(float(d), i)
        b.offer_batch(dists, np.arange(50))
        assert a.sorted_items() == b.sorted_items()

    def test_ties_keep_first_seen(self):
        best = KBest(1)
        best.offer(2.0, 10)
        best.offer(2.0, 11)  # not strictly better: ignored
        assert best.sorted_items() == [(2.0, 10)]

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            KBest(0)


class TestEmptyTree:
    """An empty tree has nothing to find, but a bad call is still a bad
    call: arguments are validated before the shortcut."""

    @pytest.fixture(params=["static", "dynamic"])
    def tree(self, request):
        metric = default_distance(PROTEIN)
        if request.param == "static":
            return VPTree(np.empty((0, 8), dtype=np.uint8), metric)
        return DynamicVPTree(metric, 8)

    def test_valid_calls_find_nothing(self, tree):
        assert tree.knn(np.zeros(8, dtype=np.uint8), 1) == ([], 0)
        assert tree.knn(np.zeros((2, 8), dtype=np.uint8), 3) == [([], 0)] * 2

    def test_k_below_one_rejected(self, tree):
        with pytest.raises(ValueError, match="k must be >= 1"):
            tree.knn(np.zeros(8, dtype=np.uint8), 0)

    def test_wrong_segment_length_rejected(self, tree):
        with pytest.raises(ValueError, match="segment length 8"):
            tree.knn(np.zeros(7, dtype=np.uint8), 3)
        with pytest.raises(ValueError, match="segment length 8"):
            tree.knn(np.zeros((2, 9), dtype=np.uint8), 3)


class TestSearchDeterminism:
    def test_same_tree_same_results(self):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 20, (120, 8)).astype(np.uint8)
        metric = default_distance(PROTEIN)
        tree_a = VPTree(pts, metric, rng=7)
        tree_b = VPTree(pts, default_distance(PROTEIN), rng=7)
        q = rng.integers(0, 20, 8).astype(np.uint8)
        assert tree_a.knn(q, 6) == tree_b.knn(q, 6)

    def test_radius_equals_bounded_knn_distances(self):
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 20, (100, 8)).astype(np.uint8)
        tree = VPTree(pts, default_distance(PROTEIN), rng=8)
        q = rng.integers(0, 20, 8).astype(np.uint8)
        radius = 30.0
        in_ball = tree.radius_search(q, radius)
        bounded, _ = tree.knn(q, len(pts), max_radius=radius)
        assert [d for d, _ in in_ball] == [d for d, _ in bounded]
