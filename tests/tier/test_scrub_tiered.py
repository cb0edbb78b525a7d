"""Anti-entropy over spilled nodes: the scrubber digest-verifies on-disk
page segments, quarantines rot, and heals back into the tier."""

from repro.core import Mendel, MendelConfig
from repro.faults.repair import ReReplicator
from repro.seq import PROTEIN, random_set
from repro.store.scrub import IntegrityScrubber
from repro.tier import TierConfig


def build(seed=13):
    db = random_set(count=12, length=90, alphabet=PROTEIN, rng=55,
                    id_prefix="s")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=3, replication=2,
                     sample_size=128, seed=seed),
    )
    mendel.spill(cache_bytes=1 << 13, config=TierConfig(page_rows=16))
    return mendel


class TestCleanScrub:
    def test_spilled_deployment_scrubs_clean(self):
        mendel = build()
        scrubber = IntegrityScrubber(mendel.index)
        assert scrubber.scrub_all() == []
        assert scrubber.report.replicas_checked > 0
        assert scrubber.report.mismatches == 0

    def test_spilled_and_wal_replicas_vote_identically(self):
        # One holder spilled, the other folded back to the WAL: the digest
        # formula is shared, so a mixed group still reaches quorum.
        mendel = build()
        node = mendel.index.topology.groups[0].nodes[0]
        node.unspill()
        assert not node.tiered
        scrubber = IntegrityScrubber(mendel.index)
        assert scrubber.scrub_all() == []


class TestTieredRot:
    def test_block_file_rot_is_detected_and_healed(self):
        mendel = build()
        index = mendel.index
        node = index.topology.groups[0].nodes[0]
        assert node.tiered
        block_id = node.durable.manifest_ids()[0]
        node.tier.corrupt_block(block_id)
        assert not node.durable.verify_many([block_id])[0]

        repairer = ReReplicator(index)
        scrubber = IntegrityScrubber(
            index, heal=lambda group, findings: repairer.sync_group(group)
        )
        findings = scrubber.scrub_all()
        # A rotted page segment takes down every row it holds: all the
        # page's blocks fail their digest check, on this node only.
        assert findings
        assert {f.reason for f in findings} == {"digest_mismatch"}
        assert {f.node_id for f in findings} == {node.node_id}
        assert block_id in {f.block_id for f in findings}
        assert scrubber.report.heals_requested == 1

        # The heal streamed verified bytes back AND the node re-spilled
        # (the repaired copy lives in a fresh block file, not RAM).
        assert node.tiered
        assert block_id in node.durable.manifest_ids()
        assert node.durable.verify_many([block_id])[0]
        assert IntegrityScrubber(index).scrub_all() == []

    def test_dead_tiered_nodes_are_not_read(self):
        mendel = build()
        node = mendel.index.topology.groups[0].nodes[0]
        held = len(node.durable.manifest_ids())
        assert held > 0
        node.alive = False
        scrubber = IntegrityScrubber(mendel.index)
        scrubber.scrub_all()
        alive_copies = sum(
            len(n.durable.manifest_ids())
            for g in mendel.index.topology.groups
            for n in g.nodes if n.alive
        )
        assert scrubber.report.replicas_checked == alive_copies
