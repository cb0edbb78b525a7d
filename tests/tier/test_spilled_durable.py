"""A spilled node's block file is its durable medium, for every reader.

Spilling deletes the snapshot + WAL, so whatever reads ``node.durable`` —
the durability report, ``flush_durable``, the chaos bit flip, the scrubber,
crash recovery — must find the node's blocks in the block file, live or
crashed.  Deployments, victims and flipped bits are drawn from
``CHAOS_SEED``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.scenario import (
    PARAMS,
    answer_signature,
    build_deployment,
    drive,
    planted_probes,
)
from repro.seq import PROTEIN, random_set
from repro.store.durable import SNAPSHOT_FILE, WAL_FILE
from repro.tier.blockfile import TIER_FILE

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
REPLICATION = 2
FLIP_AT = 0.005
HORIZON = 0.05
CACHE_BYTES = 1 << 14


def deployment():
    return build_deployment(SEED, (18, 120), group_count=2, group_size=3,
                            replication=REPLICATION)


def spilled():
    mendel = deployment()
    mendel.spill(cache_bytes=CACHE_BYTES)
    return mendel


def victim(mendel):
    """A seed-drawn node and one block it holds."""
    nodes = mendel.index.topology.nodes
    node = nodes[SEED % len(nodes)]
    return node, node.block_ids[(7 * SEED + 2) % len(node.block_ids)]


def flip_run(mendel, node, block, scrub_interval):
    probes, _ = planted_probes(mendel, 4, SEED + 10, spread=True)
    schedule = FaultSchedule(
        events=(FaultEvent.bit_flip(FLIP_AT, node.node_id, block=block,
                                    bit=3 + SEED % 5),),
        seed=SEED,
        scrub_interval=scrub_interval,
        horizon=HORIZON,
    )
    run = drive(mendel, probes, "spilled-flip", SEED, faults=schedule,
                arrival_interval=HORIZON / (len(probes) + 1))
    return probes, run


def signatures(reports):
    return [answer_signature(report) for report in reports]


class TestDurabilityReport:
    def test_spill_keeps_the_durable_block_count(self):
        mendel = deployment()
        before = mendel.durability()["durable_blocks"]
        assert before > 0
        mendel.spill(cache_bytes=CACHE_BYTES)
        assert mendel.durability()["durable_blocks"] == before

    def test_flush_writes_no_snapshot_beside_a_block_file(self):
        mendel = spilled()
        assert mendel.flush_durable() == len(mendel.index.topology.nodes)
        for node in mendel.index.topology.nodes:
            assert node.disk.exists(TIER_FILE)
            assert not node.disk.exists(SNAPSHOT_FILE)
            assert not node.disk.exists(WAL_FILE)


class TestScheduledBitFlip:
    def test_flip_lands_on_the_block_file(self):
        mendel = spilled()
        node, block = victim(mendel)
        _, run = flip_run(mendel, node, block, scrub_interval=0.0)
        flips = [line for line in run.chaos_log if "bit_flip" in line]
        assert len(flips) == 1
        assert f"durable block {block} flipped" in flips[0]
        assert node.verify_blocks([block]) == [False]

    def test_flip_is_detected_healed_and_never_served(self):
        twin = spilled()
        mendel = spilled()
        node, block = victim(mendel)
        probes, run = flip_run(mendel, node, block,
                               scrub_interval=FLIP_AT / 2)
        logged = Counter(event.kind for event in run.monitor.events.events())
        assert logged["corruption_detected"] > 0
        assert logged["scrub_heal"] > 0
        assert node.verify_blocks([block]) == [True]
        assert signatures(run.reports) == signatures(
            twin.engine.run_batch(probes, PARAMS)
        )


class TestCrashWhileSpilled:
    def test_recovery_reports_the_block_file_rows(self):
        mendel = spilled()
        node, _ = victim(mendel)
        manifest = node.durable.manifest_ids()
        assert manifest
        mendel.fail_node(node.node_id)
        mendel.recover_node(node.node_id)
        report = node.last_recovery
        assert report["blocks"] == report["tier_blocks"] == len(manifest)
        assert node.tiered

    def test_a_write_to_a_crashed_spilled_node_is_kept(self):
        """Placement stores on dead replicas too: the block file folds into
        a WAL that takes the write, and recovery spills the node again."""
        twin = deployment()
        mendel = spilled()
        node, _ = victim(mendel)
        mendel.fail_node(node.node_id)
        late = random_set(count=3, length=120, alphabet=PROTEIN,
                          rng=SEED + 99, id_prefix="late")
        mendel.insert(late)
        twin.insert(late)
        expected = sorted(twin.index.node(node.node_id).block_ids)
        assert sorted(node.known_block_ids) == expected
        mendel.recover_node(node.node_id)
        assert node.tiered
        assert sorted(node.block_ids) == expected
        probes, _ = planted_probes(mendel, 4, SEED + 10, spread=True)
        assert signatures(mendel.engine.run_batch(probes, PARAMS)) == (
            signatures(twin.engine.run_batch(probes, PARAMS))
        )

    def test_a_page_rotted_while_down_is_dropped_and_restored(self):
        """Replay keeps only rows matching their acknowledged digest: the
        rotted page's rows are counted as CRC errors, not replayed, and
        re-replication restores them from a healthy replica, so no
        divergent copy survives for the scrubber to find."""
        twin = deployment()
        mendel = spilled()
        node, _ = victim(mendel)
        manifest = node.durable.manifest_ids()
        mendel.fail_node(node.node_id)
        node.durable.corrupt_block(manifest[SEED % len(manifest)],
                                   bit=3 + SEED % 5)
        mendel.recover_node(node.node_id)
        report = node.last_recovery
        assert report["crc_errors"] > 0
        assert report["blocks"] + report["crc_errors"] == len(manifest)
        assert mendel.index.scrub(heal=False).mismatches == 0
        holders = Counter(
            block for member in mendel.index.topology.nodes
            for block in member.block_ids
        )
        assert len(holders) == mendel.block_count
        assert set(holders.values()) == {REPLICATION}
        probes, _ = planted_probes(mendel, 4, SEED + 10, spread=True)
        assert signatures(mendel.engine.run_batch(probes, PARAMS)) == (
            signatures(twin.engine.run_batch(probes, PARAMS))
        )

    def test_rotted_block_table_recovers_from_peers(self):
        twin = deployment()
        mendel = spilled()
        node, _ = victim(mendel)
        mendel.fail_node(node.node_id)
        node.disk.flip_bit(TIER_FILE, 30, 1)  # inside the segment table
        mendel.recover_node(node.node_id)
        assert node.alive
        assert node.last_recovery["snapshot_corrupt"]
        holders = Counter(
            block for member in mendel.index.topology.nodes
            for block in member.block_ids
        )
        assert len(holders) == mendel.block_count
        assert set(holders.values()) == {REPLICATION}
        probes, _ = planted_probes(mendel, 4, SEED + 10, spread=True)
        assert signatures(mendel.engine.run_batch(probes, PARAMS)) == (
            signatures(twin.engine.run_batch(probes, PARAMS))
        )
