"""Blocks no node holds count against coverage and are reported lost.

The index's placement record (``MendelIndex.blocks_of_group``), not the
union of what a group's nodes remember, is a query's coverage denominator
and the set repair plans against.  At replication 1 a crashed node whose
snapshot fails its CRC, or a spilled node whose replay drops the rows
whose digest fails, rejoins without those blocks, and no other copy
exists.  Every probe routed to its group must then report the coverage
those blocks cost and ``degraded``, and ``ReReplicator.plan(group).lost``
and the sync's ``RepairReport`` must name exactly the unheld blocks.

The victim and the flipped bit are drawn from ``CHAOS_SEED``, so each seed
of the CI matrix loses another node's share; the fixed recipe (``g00.n0``,
snapshot byte 40, bit 2) is pinned.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.faults.repair import ReReplicator
from repro.scenario import PARAMS, build_deployment, planted_probes
from repro.tier import TierConfig
from repro.tier.blockfile import _HEAD, TIER_FILE

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))


def deployment():
    return build_deployment(3, (18, 120), group_count=2, group_size=3,
                            replication=1)


def spilled_deployment():
    mendel = deployment()
    mendel.spill(cache_bytes=1 << 12, config=TierConfig(page_rows=16))
    return mendel


def crash_with_rot(mendel, victim_id: str, file: str, offset: int,
                   bit: int) -> set[int]:
    """Crash *victim_id*, flip one bit of its *file* and rejoin it through
    ``recover_node``; returns the blocks the victim held before."""
    index = mendel.index
    held = set(index.node(victim_id).block_ids)
    index.fail_node(victim_id)
    index.node(victim_id).disk.flip_bit(file, offset, bit)
    index.recover_node(victim_id)
    return held


def payload_start(node) -> int:
    """Where a block file's page payloads begin (after the header, segment
    table, row meta and digests)."""
    blob = node.disk.read(TIER_FILE)
    _, _, _, table, rowmeta, digests = _HEAD.unpack(blob[: _HEAD.size])
    return _HEAD.size + table + rowmeta + digests


def assert_reported(mendel, group_id: str) -> set[int]:
    """The blocks placed on *group_id* that no node holds are repair's
    ``lost`` and cost every probe routed there its share of coverage;
    returns them."""
    index = mendel.index
    group = index.topology.group(group_id)
    held = set().union(*(node.block_ids for node in group.nodes))
    unheld = index.blocks_of_group[group_id] - held
    assert ReReplicator(index).plan(group).lost == sorted(unheld)
    assert ReReplicator(index).sync_group(group).blocks_lost == len(unheld)

    probes, _ = planted_probes(mendel, 6, 11)
    routed = 0
    for probe in probes:
        report = mendel.query(probe, PARAMS)
        groups = {gid for route in report.routes for gid in route.groups}
        if group_id not in groups:
            continue
        routed += 1
        scope = sum(len(index.blocks_of_group[gid]) for gid in groups)
        assert report.coverage == pytest.approx(1 - len(unheld) / scope)
        assert report.degraded == bool(unheld)
    assert routed, f"no probe routed to {group_id}"
    return unheld


class TestLostSnapshot:
    def test_the_recipe(self):
        mendel = deployment()
        mendel.index.flush_durable()
        held = crash_with_rot(mendel, "g00.n0", "snapshot", 40, 2)
        unheld = assert_reported(mendel, "g00")
        assert unheld == held and len(unheld) == 330

    def test_a_seeded_victim_and_bit(self):
        """Every snapshot byte is under its CRC, so any flipped bit costs
        the victim its whole share."""
        draw = random.Random(SEED)
        mendel = deployment()
        mendel.index.flush_durable()
        victim = draw.choice(mendel.index.topology.nodes)
        offset = draw.randrange(len(victim.disk.read("snapshot")))
        held = crash_with_rot(mendel, victim.node_id, "snapshot", offset,
                              draw.randrange(8))
        unheld = assert_reported(mendel, victim.group_id)
        assert unheld == held and unheld


class TestLostSpilledRows:
    """A spilled node replays its block file and keeps only the rows whose
    acknowledged digest still verifies."""

    def test_a_flip_in_the_first_page(self):
        mendel = spilled_deployment()
        victim = mendel.index.node("g00.n1")
        held = crash_with_rot(mendel, victim.node_id, TIER_FILE,
                              payload_start(victim), 0)
        unheld = assert_reported(mendel, "g00")
        assert unheld and unheld == held - set(victim.block_ids)

    def test_a_seeded_victim_and_bit(self):
        draw = random.Random(SEED)
        mendel = spilled_deployment()
        victim = draw.choice(mendel.index.topology.nodes)
        offset = draw.randrange(payload_start(victim),
                                len(victim.disk.read(TIER_FILE)))
        held = crash_with_rot(mendel, victim.node_id, TIER_FILE, offset,
                              draw.randrange(8))
        unheld = assert_reported(mendel, victim.group_id)
        assert unheld == held - set(victim.block_ids)
