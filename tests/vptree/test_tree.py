"""Tests for the static vp-tree (repro.vptree.tree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import HammingDistance, default_distance
from repro.vptree.tree import VPTree


def brute_knn(points, metric, query, k):
    dists = sorted((metric(query, p), i) for i, p in enumerate(points))
    return dists[:k]


@pytest.fixture(scope="module")
def metric():
    return default_distance(PROTEIN)


@pytest.fixture(scope="module")
def points(metric):
    rng = np.random.default_rng(0)
    return rng.integers(0, 20, size=(300, 10)).astype(np.uint8)


@pytest.fixture(scope="module")
def tree(points, metric):
    return VPTree(points, metric, rng=1, bucket_capacity=8)


class TestConstruction:
    def test_size(self, tree, points):
        assert len(tree) == points.shape[0]

    def test_invariants(self, tree):
        tree.validate_invariants()

    def test_depth_logarithmic(self, tree, points):
        # A balanced bucketed tree over n points should be O(log n) deep.
        import math

        n_leaves = points.shape[0] / tree.bucket_capacity
        assert tree.depth <= 3 * (math.log2(n_leaves) + 1)

    def test_empty_tree(self, metric):
        t = VPTree(np.empty((0, 5), dtype=np.uint8), metric)
        assert len(t) == 0
        assert t.depth == 0
        assert t.knn(np.zeros(5, dtype=np.uint8), 3) == ([], 0)

    def test_single_point(self, metric):
        pts = np.array([[1, 2, 3]], dtype=np.uint8)
        t = VPTree(pts, metric)
        assert len(t) == 1
        hits, evals = t.knn(np.array([1, 2, 3], dtype=np.uint8), 1)
        assert hits[0][0] == 0.0 and evals == 1

    def test_all_identical_points(self, metric):
        pts = np.tile(np.array([3, 3, 3], dtype=np.uint8), (40, 1))
        t = VPTree(pts, metric, bucket_capacity=4, rng=2)
        assert len(t) == 40
        hits, _ = t.knn(np.array([3, 3, 3], dtype=np.uint8), 5)
        assert len(hits) == 5
        assert all(d == 0.0 for d, _ in hits)

    def test_non_2d_rejected(self, metric):
        with pytest.raises(ValueError, match="2-D"):
            VPTree(np.zeros(5, dtype=np.uint8), metric)

    def test_bad_bucket_capacity(self, metric, points):
        with pytest.raises(ValueError, match="bucket_capacity"):
            VPTree(points, metric, bucket_capacity=0)

    def test_payload_length_checked(self, metric, points):
        with pytest.raises(ValueError, match="payload count"):
            VPTree(points, metric, payloads=["a"])

    def test_custom_payloads_returned(self, metric):
        pts = np.array([[0, 0], [5, 5]], dtype=np.uint8)
        t = VPTree(pts, HammingDistance(), payloads=["near", "far"])
        hits, _ = t.knn(np.array([0, 0], dtype=np.uint8), 1)
        assert hits[0][1] == "near"

    def test_prefixes_follow_path_rule(self, tree):
        # Root prefix 1; left child 2p, right child 2p + 1.
        def walk(node):
            if node.is_leaf:
                return
            assert node.left.prefix == node.prefix << 1
            assert node.right.prefix == (node.prefix << 1) | 1
            walk(node.left)
            walk(node.right)

        walk(tree.root)


class TestKnn:
    def test_matches_brute_force(self, tree, points, metric):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = rng.integers(0, 20, 10).astype(np.uint8)
            got, _ = tree.knn(q, 5)
            expected = brute_knn(points, metric, q, 5)
            assert [d for d, _ in got] == [d for d, _ in expected]

    def test_query_in_tree_found_first(self, tree, points):
        hits, _ = tree.knn(points[17], 1)
        assert hits[0][0] == 0.0

    def test_k_larger_than_tree(self, metric):
        pts = np.random.default_rng(1).integers(0, 20, (5, 6)).astype(np.uint8)
        t = VPTree(pts, metric)
        assert len(t.knn(pts[0], 50)[0]) == 5

    def test_sorted_ascending(self, tree, rng):
        q = rng.integers(0, 20, 10).astype(np.uint8)
        hits, _ = tree.knn(q, 10)
        dists = [d for d, _ in hits]
        assert dists == sorted(dists)

    def test_wrong_length_query(self, tree):
        with pytest.raises(ValueError, match="length"):
            tree.knn(np.zeros(3, dtype=np.uint8), 1)

    def test_max_radius_is_lossless_filter(self, tree, points, metric, rng):
        q = rng.integers(0, 20, 10).astype(np.uint8)
        unbounded, _ = tree.knn(q, 8)
        radius = unbounded[-1][0]
        bounded, _ = tree.knn(q, 8, max_radius=radius)
        assert [d for d, _ in bounded] == [d for d, _ in unbounded]

    def test_max_radius_zero_finds_exact_only(self, tree, points):
        hits, _ = tree.knn(points[3], 10, max_radius=0.0)
        assert all(d == 0.0 for d, _ in hits)
        assert len(hits) >= 1


class TestRadiusSearch:
    def test_matches_brute_force(self, tree, points, metric):
        rng = np.random.default_rng(9)
        for radius in (0.0, 15.0, 40.0):
            q = rng.integers(0, 20, 10).astype(np.uint8)
            got = tree.radius_search(q, radius)
            expected = [
                (metric(q, p), i) for i, p in enumerate(points)
                if metric(q, p) <= radius
            ]
            assert len(got) == len(expected)
            assert sorted(d for d, _ in got) == sorted(d for d, _ in expected)

    def test_negative_radius_rejected(self, tree):
        with pytest.raises(ValueError, match="radius"):
            tree.radius_search(np.zeros(10, dtype=np.uint8), -1.0)

    def test_empty_tree(self, metric):
        t = VPTree(np.empty((0, 4), dtype=np.uint8), metric)
        assert t.radius_search(np.zeros(4, dtype=np.uint8), 10.0) == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
def test_knn_equals_brute_force_property(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    pts = rng.integers(0, 20, (n, 6)).astype(np.uint8)
    metric = default_distance(PROTEIN)
    tree = VPTree(pts, metric, rng=seed, bucket_capacity=int(rng.integers(1, 9)))
    q = rng.integers(0, 20, 6).astype(np.uint8)
    got = [d for d, _ in tree.knn(q, k)[0]]
    expected = [d for d, _ in brute_knn(pts, metric, q, k)]
    assert got == expected
