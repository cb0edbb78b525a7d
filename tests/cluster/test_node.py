"""Tests for repro.cluster.node."""

import numpy as np
import pytest

from repro.cluster.node import HP_DL160, SUNFIRE_X4100, NodeProfile, StorageNode
from repro.obs.metrics import default_registry
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.tier import BlockCache, TierConfig


def make_node(profile=HP_DL160, bucket=8, seg=8, rng_seed=1):
    return StorageNode(
        node_id="g00.n0",
        group_id="g00",
        metric_factory=lambda: default_distance(PROTEIN),
        segment_length=seg,
        profile=profile,
        bucket_capacity=bucket,
        rng_seed=rng_seed,
    )


def blocks(n, seg=8, seed=0):
    return np.random.default_rng(seed).integers(0, 20, (n, seg)).astype(np.uint8)


def evals_counted(group="g00"):
    """The thread-safe tally of a group's search evaluations."""
    return default_registry().value(
        "repro_distance_evaluations_total", group=group)


class TestNodeProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeProfile(speed_factor=0)
        with pytest.raises(ValueError):
            NodeProfile(seconds_per_eval=-1)

    def test_testbed_classes(self):
        assert HP_DL160.speed_factor > SUNFIRE_X4100.speed_factor


class TestStorage:
    def test_store_and_count(self):
        node = make_node()
        evals = node.store_blocks(blocks(20), list(range(20)))
        assert node.block_count == 20
        assert node.stats.blocks_stored == 20
        # the insert reports what it cost the tree's metric
        assert evals == node.tree.adapter.pair_evaluations > 0

    def test_store_shape_mismatch(self):
        node = make_node()
        with pytest.raises(ValueError, match="block ids"):
            node.store_blocks(blocks(5), [1, 2])

    def test_store_single_row(self):
        node = make_node()
        node.store_blocks(blocks(1)[0], [0])
        assert node.block_count == 1


class TestLocalKnn:
    def test_returns_block_ids(self):
        node = make_node()
        data = blocks(30)
        node.store_blocks(data, list(range(100, 130)))
        counted = evals_counted()
        found = node.local_knn(data[3:4], 2)
        [(hits, evals)] = found
        assert hits[0][1] == 103
        assert hits[0][0] == 0.0
        # a search counts nothing itself; the replay's count is its evals
        assert evals_counted() == counted
        node.served(1, evals)
        assert evals == evals_counted() - counted > 0
        # an all-RAM node pays no cold reads
        assert (found.cold_reads, found.cold_bytes) == (0, 0)

    def test_empty_node(self):
        node = make_node()
        [(hits, evals)] = node.local_knn(blocks(1), 3)
        assert hits == []
        assert evals == 0
        assert node.service_time(evals) > 0  # still charges request overhead

    def test_stats_accumulate(self):
        node = make_node()
        node.store_blocks(blocks(30), list(range(30)))
        counted = evals_counted()
        searches = node.local_knn(blocks(1, seed=5), 2)
        searches += node.local_knn(blocks(2, seed=6), 2)
        assert node.stats.queries_served == 0 and evals_counted() == counted
        for served in (searches[:1], searches[1:]):
            node.served(len(served), sum(evals for _, evals in served))
        assert node.stats.queries_served == 3
        assert sum(evals for _, evals in searches) == evals_counted() - counted > 0

    def test_max_radius_passthrough(self):
        node = make_node()
        data = blocks(30)
        node.store_blocks(data, list(range(30)))
        [(hits, _)] = node.local_knn(data[:1], 10, max_radius=0.0)
        assert all(d == 0.0 for d, _ in hits)


class TestSearchAcrossMedia:
    def test_ram_spilled_recovered_unspilled_agree(self):
        """An all-RAM node fills a window batch's distance matrix from its
        code matrix, a spilled one from its pages, read once per call: hits
        (order included) and charged evaluations must not tell them apart,
        nor a node rebuilt from its durable state."""
        # Seed 0 is what a restarted node rebuilds its tree with.
        node = make_node(rng_seed=0)
        data = blocks(150)
        node.store_blocks(data, list(range(500, 650)))
        windows = np.vstack([data[:5], blocks(5, seed=9)])

        def answers():
            return [
                list(node.local_knn(windows, k, max_radius=radius))
                for k, radius in ((1, float("inf")), (6, 30.0), (151, 30.0),
                                  (151, 0.0), (6, float("inf")))
            ]

        ram = answers()
        assert all(evals > 0 for sweep in ram for _, evals in sweep)
        node.fail()
        node.recover()
        assert answers() == ram

        node.attach_tier(BlockCache(1 << 11),
                         TierConfig(page_rows=8, alphabet_size=20))
        node.spill()
        assert node.tiered
        seeks = node.tier.total_seeks
        assert answers() == ram
        assert node.tier.total_seeks > seeks  # it really read pages
        node.fail()
        node.recover()  # auto-respill: tiered again, from the block file
        assert node.tiered
        assert answers() == ram
        node.unspill()
        assert not node.tiered
        assert answers() == ram


class TestLifecycle:
    def test_fail_and_recover(self):
        node = make_node()
        assert node.alive
        node.fail()
        assert not node.alive
        node.recover()
        assert node.alive

    def test_failed_node_keeps_its_data(self):
        node = make_node()
        node.store_blocks(blocks(10), list(range(10)))
        node.fail()
        # The crash wiped RAM, but the durable manifest still records the
        # node's holdings for repair planning and coverage accounting.
        assert node.block_count == 0
        assert node.known_block_ids == list(range(10))
        node.recover()
        # Recovery replayed the snapshot + WAL, not stale RAM.
        assert node.block_count == 10
        assert node.last_recovery is not None
        assert node.last_recovery["blocks"] == 10
        [(hits, _)] = node.local_knn(blocks(10)[3:4], 1)
        assert hits[0][0] == 0.0

    def test_reset_storage_empties_index(self):
        node = make_node()
        node.store_blocks(blocks(10), list(range(10)))
        node.reset_storage()
        assert node.block_count == 0
        assert len(node.tree) == 0
        # And the node is immediately usable again.
        node.store_blocks(blocks(4, seed=9), [100, 101, 102, 103])
        assert node.block_count == 4


class TestServiceTime:
    def test_scales_with_evals(self):
        node = make_node()
        assert node.service_time(2000) > node.service_time(100)

    def test_slower_hardware_takes_longer(self):
        fast = make_node(HP_DL160)
        slow = make_node(SUNFIRE_X4100)
        assert slow.service_time(1000) > fast.service_time(1000)

    def test_ops_scaled_by_segment_length(self):
        node = make_node(seg=8)
        # One segment eval == segment_length residue ops.
        assert node.service_time_ops(8) == pytest.approx(
            node.service_time(1, overhead_evals=0)
        )


class TestVerifyBlocks:
    def test_ram_node_batch_is_the_one_block_gate(self):
        """``verify_blocks(ids)`` is ``verify_blocks([b])`` for each ``b``, in
        flags and in ``corrupt_reads``: a rotten copy fails each time it is
        asked for, an id with no durable record passes."""
        node = make_node()
        node.store_blocks(blocks(12), list(range(12)))
        node.durable.corrupt_block(4, bit=5)
        node.durable.corrupt_block(9, bit=17)
        ids = [0, 4, 9, 4, 11, 404, 3, 9]
        assert node.durable.digest(404) is None
        before = node.stats.corrupt_reads
        one_by_one = [node.verify_blocks([b])[0] for b in ids]
        middle = node.stats.corrupt_reads
        assert node.verify_blocks(ids) == one_by_one == [
            True, False, False, False, True, True, True, False]
        assert node.stats.corrupt_reads - middle == middle - before == 4
        assert node.verify_blocks([]) == []


    @pytest.mark.parametrize("spilled", [False, True])
    def test_a_verdict_stands_until_the_disk_changes(self, spilled, monkeypatch):
        """A block is read once while its node's disk and medium stay as
        they were; a bit flip (which bumps ``NodeDisk.generation``) makes
        every block be read again, and each ``False`` returned still counts
        a corrupt read."""
        node = make_node()
        node.store_blocks(blocks(12), list(range(12)))
        if spilled:
            node.attach_tier(BlockCache(1 << 20), TierConfig(page_rows=4))
            node.spill()
        asked = []
        verify_many = type(node.durable).verify_many
        monkeypatch.setattr(type(node.durable), "verify_many",
                            lambda medium, ids: asked.append(list(ids))
                            or verify_many(medium, ids))
        assert node.verify_blocks([3, 5, 3]) == [True] * 3
        assert node.verify_blocks([5, 7]) == [True] * 2
        assert asked == [[3, 5], [7]]
        memo = node._verdicts
        generation = node.disk.generation
        node.durable.corrupt_block(5, bit=3)
        assert node.disk.generation > generation
        before = node.stats.corrupt_reads
        flags = node.verify_blocks([5, 3, 5])
        assert flags == [ok is not False for ok in verify_many(node.durable, [5, 3, 5])]
        assert node.verify_blocks([5]) == [False] == flags[:1]
        assert asked[2:] == [[5, 3]]
        assert node.stats.corrupt_reads - before == flags.count(False) + 1
        assert node._verdicts is not memo and memo[1] == {3: True, 5: True, 7: True}
