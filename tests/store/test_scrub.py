"""Anti-entropy scrubbing: digest comparison, quarantine, healing."""

import numpy as np

from repro.core import Mendel, MendelConfig
from repro.faults.repair import ReReplicator
from repro.obs.events import EventLog
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.store.scrub import IntegrityScrubber


def build(replication=2, group_size=3, seed=13):
    db = random_set(count=12, length=90, alphabet=PROTEIN, rng=55,
                    id_prefix="s")
    return Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=group_size,
                     replication=replication, sample_size=128, seed=seed),
    )


def rewrite_copy(index, node, block_id):
    """Replace one node's durable copy with different (self-verifying)
    bytes: divergence, not rot — the copy passes its own digest check."""
    codes = index.store.codes_matrix([block_id])[0].copy()
    codes[0] ^= 1
    assert node.durable.append_insert(block_id, codes)


class TestCleanScrub:
    def test_healthy_deployment_has_no_findings(self):
        mendel = build()
        scrubber = IntegrityScrubber(mendel.index)
        findings = scrubber.scrub_all()
        assert findings == []
        assert scrubber.report.passes == 1
        assert scrubber.report.replicas_checked > 0
        assert scrubber.report.mismatches == 0

    def test_dead_nodes_are_not_read(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        held = len(victim.durable.manifest_ids())
        assert held > 0
        victim.alive = False  # crash without wiping: stale bytes on disk
        scrubber = IntegrityScrubber(mendel.index)
        scrubber.scrub_all()
        # Only the live members' copies were checked.
        alive_copies = sum(
            len(n.durable.manifest_ids())
            for g in mendel.index.topology.groups
            for n in g.nodes if n.alive
        )
        assert scrubber.report.replicas_checked == alive_copies


class TestDigestMismatch:
    def test_bit_rot_is_detected_and_quarantined(self):
        mendel = build()
        node = mendel.index.topology.groups[0].nodes[0]
        block_id = node.durable.manifest_ids()[0]
        node.durable.corrupt_block(block_id, bit=9)
        events = EventLog()
        scrubber = IntegrityScrubber(mendel.index, event_log=events)
        findings = scrubber.scrub_all()
        assert [f.reason for f in findings] == ["digest_mismatch"]
        assert findings[0].node_id == node.node_id
        assert findings[0].block_id == block_id
        assert scrubber.report.quarantined == 1
        # Quarantine dropped the copy from RAM and the durable manifest…
        assert block_id not in node.block_ids
        assert block_id not in node.durable.manifest_ids()
        # …and emitted the detection event.
        assert [e.kind for e in events.events()] == ["corruption_detected"]

    def test_heal_callback_restores_and_second_pass_is_clean(self):
        mendel = build()
        index = mendel.index
        node = index.topology.groups[0].nodes[0]
        block_id = node.durable.manifest_ids()[0]
        node.durable.corrupt_block(block_id, bit=4)
        repairer = ReReplicator(index)
        scrubber = IntegrityScrubber(
            index, heal=lambda group, findings: repairer.sync_group(group)
        )
        scrubber.scrub_all()
        assert scrubber.report.heals_requested == 1
        # The heal streamed verified bytes back from a replica…
        assert block_id in node.block_ids
        assert node.durable.verify_many([block_id])[0]
        expected = index.store.codes_matrix([block_id])[0]
        payload = node.durable.payload(block_id)
        assert np.array_equal(np.frombuffer(payload, dtype=np.uint8),
                              expected)
        # …so a fresh audit pass finds nothing.
        assert IntegrityScrubber(index).scrub_all() == []


class TestDivergence:
    def test_minority_among_three_is_quarantined(self):
        mendel = build(replication=3)
        index = mendel.index
        group = index.topology.groups[0]
        block_id = group.nodes[0].durable.manifest_ids()[0]
        holders = [n for n in group.nodes
                   if block_id in n.durable.manifest_ids()]
        assert len(holders) == 3
        rewrite_copy(index, holders[0], block_id)
        scrubber = IntegrityScrubber(index)
        findings = [f for f in scrubber.scrub_all()
                    if f.block_id == block_id]
        assert [f.reason for f in findings] == ["divergent_minority"]
        assert findings[0].node_id == holders[0].node_id
        assert findings[0].healable
        assert block_id not in holders[0].durable.manifest_ids()

    def test_exact_tie_is_reported_never_healed(self):
        mendel = build(replication=2)
        index = mendel.index
        group = index.topology.groups[0]
        block_id = group.nodes[0].durable.manifest_ids()[0]
        holders = [n for n in group.nodes
                   if block_id in n.durable.manifest_ids()]
        assert len(holders) == 2
        rewrite_copy(index, holders[0], block_id)
        healed = []
        scrubber = IntegrityScrubber(
            index, heal=lambda group, findings: healed.append(findings)
        )
        findings = [f for f in scrubber.scrub_all()
                    if f.block_id == block_id]
        # Two self-verifying copies that disagree: there is no verified
        # majority to heal FROM, so both are flagged and neither touched.
        assert {f.reason for f in findings} == {"divergent_tie"}
        assert all(not f.healable for f in findings)
        assert scrubber.report.quarantined == 0
        assert healed == []
        for holder in holders:
            assert block_id in holder.durable.manifest_ids()


class TestVerifiedReads:
    def test_corrupt_copy_is_skipped_at_query_time(self):
        mendel = build()
        node = mendel.index.topology.groups[0].nodes[0]
        block_id = node.durable.manifest_ids()[0]
        node.durable.corrupt_block(block_id, bit=6)
        assert not node.verify_blocks([block_id])[0]
        assert node.stats.corrupt_reads == 1
        # Blocks without durable damage still verify.
        other = node.durable.manifest_ids()[1]
        assert node.verify_blocks([other])[0]
