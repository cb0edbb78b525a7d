"""Edge-case tests for the vp-tree search internals (repro.vptree.search)."""

import numpy as np
import pytest

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.search import _KBest
from repro.vptree.tree import VPTree


class TestKBest:
    def test_tau_unbounded_until_full(self):
        best = _KBest(3)
        assert best.tau == float("inf")
        best.offer(5.0, 1)
        best.offer(2.0, 2)
        assert best.tau == float("inf")
        best.offer(9.0, 3)
        assert best.tau == 9.0

    def test_tau_shrinks(self):
        best = _KBest(2)
        best.offer(9.0, 1)
        best.offer(5.0, 2)
        assert best.tau == 9.0
        best.offer(1.0, 3)
        assert best.tau == 5.0

    def test_max_radius_caps_tau_and_entries(self):
        best = _KBest(5, max_radius=3.0)
        assert best.tau == 3.0
        best.offer(10.0, 1)  # rejected
        best.offer(2.0, 2)
        assert best.sorted_items() == [(2.0, 2)]

    def test_boundary_distance_accepted(self):
        best = _KBest(2, max_radius=3.0)
        best.offer(3.0, 1)
        assert best.sorted_items() == [(3.0, 1)]

    def test_offer_batch_matches_sequential(self):
        rng = np.random.default_rng(3)
        dists = rng.random(50) * 10
        a = _KBest(7)
        b = _KBest(7)
        for i, d in enumerate(dists):
            a.offer(float(d), i)
        b.offer_batch(dists, np.arange(50))
        assert a.sorted_items() == b.sorted_items()

    def test_ties_keep_first_seen(self):
        best = _KBest(1)
        best.offer(2.0, 10)
        best.offer(2.0, 11)  # not strictly better: ignored
        assert best.sorted_items() == [(2.0, 10)]

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            _KBest(0)


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
