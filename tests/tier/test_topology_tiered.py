"""Topology mutation and crash recovery with tiered nodes: block files
move/rebuild where the old code moved RAM arrays, and answers never
change."""

from repro.core import Mendel, MendelConfig, QueryParams
from repro.scenario import answer_signature as signature
from repro.seq import PROTEIN, random_set
from repro.seq.mutate import mutate_to_identity
from repro.tier import TierConfig


def build(seed=9, group_size=3):
    db = random_set(count=12, length=100, alphabet=PROTEIN, rng=77,
                    id_prefix="t")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=group_size, replication=2,
                     sample_size=128, seed=seed),
    )
    mendel.spill(cache_bytes=1 << 13, config=TierConfig(page_rows=16))
    probe = mutate_to_identity(db.records[3], 0.85, rng=91, seq_id="probe")
    return db, mendel, probe


PARAMS = QueryParams(k=6, n=6, i=0.7)


class TestCrashRecovery:
    def test_fail_keeps_the_block_file_as_a_disk_handle(self):
        _db, mendel, _probe = build()
        node = mendel.index.topology.groups[0].nodes[0]
        manifest = node.durable.manifest_ids()
        mendel.fail_node(node.node_id)
        assert not node.alive
        assert not node.tiered  # detached: no cache, no reads
        # The dead node's manifest is still auditable from its disk alone.
        assert node.durable.manifest_ids() == manifest

    def test_recover_restores_blocks_and_respills(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        node = mendel.index.topology.groups[0].nodes[0]
        manifest = set(node.durable.manifest_ids())
        mendel.fail_node(node.node_id)
        mendel.recover_node(node.node_id)
        assert node.alive
        assert node.tiered  # auto-respilled after the WAL+file replay
        assert manifest <= set(node.durable.manifest_ids())
        assert node.last_recovery["tier_blocks"] > 0
        assert signature(mendel.query(probe, PARAMS)) == expected

    def test_rereplicate_streams_into_tiered_survivors(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        node = mendel.index.topology.groups[0].nodes[0]
        mendel.fail_node(node.node_id, rereplicate=True)
        survivors = [
            n for n in mendel.index.topology.groups[0].nodes
            if n.node_id != node.node_id
        ]
        assert all(n.tiered for n in survivors)
        assert signature(mendel.query(probe, PARAMS)) == expected


class TestElasticMutation:
    def test_add_node_joins_the_tier(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        group_id = mendel.index.topology.groups[0].group_id
        node = mendel.add_node(group_id)
        assert node.tiered  # grown under a spilled deployment: spilled too
        assert node.durable.manifest_ids()
        assert signature(mendel.query(probe, PARAMS)) == expected

    def test_remove_node_drains_cache_and_metric_series(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        victim = mendel.index.topology.groups[0].nodes[-1]
        cache = mendel.index.tier_cache
        mendel.remove_node(victim.node_id)
        assert cache.resident_bytes_for(victim.node_id) == 0
        assert all(n.tiered for n in mendel.index.topology.groups[0].nodes)
        assert signature(mendel.query(probe, PARAMS)) == expected

    def test_split_group_spills_the_new_group(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        source = mendel.index.topology.groups[0].group_id
        change = mendel.split_group(source)
        new_group = mendel.index.topology.group(change.target)
        assert all(n.tiered for n in new_group.nodes if n.block_count)
        assert signature(mendel.query(probe, PARAMS)) == expected

    def test_merge_groups_keeps_answers(self):
        _db, mendel, probe = build()
        expected = signature(mendel.query(probe, PARAMS))
        groups = mendel.index.topology.groups
        mendel.merge_groups(groups[0].group_id, groups[1].group_id)
        assert signature(mendel.query(probe, PARAMS)) == expected
