"""Tests for the dynamic vp-tree (repro.vptree.dynamic)."""

import math

import numpy as np
import pytest

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.dynamic import DynamicVPTree


@pytest.fixture()
def metric():
    return default_distance(PROTEIN)


def make_points(n, length=8, seed=0):
    return np.random.default_rng(seed).integers(0, 20, (n, length)).astype(np.uint8)


class TestInsert:
    def test_single_insert_then_search(self, metric):
        t = DynamicVPTree(metric, segment_length=8, rng=1)
        p = make_points(1)[0]
        t.insert(p, payload="only")
        assert len(t) == 1
        assert t.knn(p, 1)[0][0][1] == "only"

    def test_incremental_matches_brute_force(self, metric):
        pts = make_points(150, seed=3)
        t = DynamicVPTree(metric, segment_length=8, bucket_capacity=8, rng=2)
        for i, p in enumerate(pts):
            t.insert(p, payload=i)
        assert len(t) == 150
        t.validate_invariants()
        q = make_points(1, seed=9)[0]
        got = [d for d, _ in t.knn(q, 7)[0]]
        expected = sorted(metric(q, p) for p in pts)[:7]
        assert got == pytest.approx(expected)

    def test_stays_balanced_under_insertion(self, metric):
        pts = make_points(400, seed=4)
        t = DynamicVPTree(metric, segment_length=8, bucket_capacity=8, rng=5)
        for p in pts:
            t.insert(p)
        leaves = 400 / 8
        assert t.depth <= 3 * (math.log2(leaves) + 1)

    def test_rebalances_counted(self, metric):
        pts = make_points(200, seed=6)
        t = DynamicVPTree(metric, segment_length=8, bucket_capacity=4, rng=7)
        for p in pts:
            t.insert(p)
        # The four-case machinery must actually fire at this fill rate.
        assert t.rebalance_count + t.full_rebuild_count > 0

    def test_wrong_length_rejected(self, metric):
        t = DynamicVPTree(metric, segment_length=8, rng=8)
        with pytest.raises(ValueError, match="segment length"):
            t.insert(np.zeros(5, dtype=np.uint8))

    def test_payload_defaults_to_index(self, metric):
        t = DynamicVPTree(metric, segment_length=8, rng=9)
        p = make_points(1)[0]
        index = t.insert(p)
        assert t.knn(p, 1)[0][0][1] == index


class TestBatchInsert:
    def test_large_batch_triggers_rebuild(self, metric):
        pts = make_points(120, seed=10)
        t = DynamicVPTree(metric, segment_length=8, rng=11)
        t.insert_batch(pts, payloads=list(range(120)))
        assert t.full_rebuild_count == 1
        assert len(t) == 120
        t.validate_invariants()

    def test_small_batch_inserts_individually(self, metric):
        pts = make_points(200, seed=12)
        t = DynamicVPTree(metric, segment_length=8, rng=13, rebuild_threshold=0.25)
        t.insert_batch(pts[:150])
        rebuilds_before = t.full_rebuild_count
        t.insert_batch(pts[150:160])  # 10 < 25% of 150
        assert t.full_rebuild_count == rebuilds_before
        assert len(t) == 160

    def test_batch_search_correct(self, metric):
        pts = make_points(250, seed=14)
        t = DynamicVPTree(metric, segment_length=8, rng=15)
        t.insert_batch(pts)
        q = make_points(1, seed=16)[0]
        got = [d for d, _ in t.knn(q, 5)[0]]
        expected = sorted(metric(q, p) for p in pts)[:5]
        assert got == pytest.approx(expected)

    def test_payload_mismatch(self, metric):
        t = DynamicVPTree(metric, segment_length=8, rng=17)
        with pytest.raises(ValueError, match="payload count"):
            t.insert_batch(make_points(5), payloads=[1, 2])

    def test_1d_batch_promoted(self, metric):
        t = DynamicVPTree(metric, segment_length=8, rng=18)
        t.insert_batch(make_points(1)[0])
        assert len(t) == 1

    def test_mixed_batch_and_single(self, metric):
        pts = make_points(100, seed=19)
        t = DynamicVPTree(metric, segment_length=8, rng=20)
        t.insert_batch(pts[:50])
        for p in pts[50:]:
            t.insert(p)
        assert len(t) == 100
        t.validate_invariants()


class TestConfigValidation:
    def test_segment_length(self, metric):
        with pytest.raises(ValueError, match="segment_length"):
            DynamicVPTree(metric, segment_length=0)

    def test_rebuild_threshold(self, metric):
        with pytest.raises(ValueError, match="rebuild_threshold"):
            DynamicVPTree(metric, segment_length=8, rebuild_threshold=0.0)
        with pytest.raises(ValueError, match="rebuild_threshold"):
            DynamicVPTree(metric, segment_length=8, rebuild_threshold=1.5)
