"""Re-replication planning and placement reconciliation."""

import pytest

from repro.core import Mendel, MendelConfig
from repro.faults.repair import ReReplicator
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.sim.engine import Simulation
from repro.sim.network import Network

pytestmark = pytest.mark.chaos


def build(replication=2, seed=21):
    db = random_set(count=12, length=90, alphabet=PROTEIN, rng=77,
                    id_prefix="r")
    return Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=3, replication=replication,
                     sample_size=128, seed=seed),
    )


def holders_of(group, block_id):
    return sorted(
        node.node_id for node in group.nodes if block_id in node.block_ids
    )


def alive_holders_of(group, block_id):
    return sorted(
        node.node_id
        for node in group.nodes
        if node.alive and block_id in node.block_ids
    )


class TestPlanning:
    def test_healthy_group_is_clean(self):
        mendel = build()
        repairer = ReReplicator(mendel.index)
        for group in mendel.index.topology.groups:
            plan = repairer.plan(group)
            assert not plan.dirty
            assert plan.lost == []

    def test_dead_node_produces_moves_with_alive_sources(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        victim.fail()
        plan = ReReplicator(mendel.index).plan(group)
        assert plan.moves, "victim's blocks need new holders"
        for move in plan.moves:
            assert move.src != victim.node_id
            assert move.dst != victim.node_id
            assert group.node(move.src).alive

    def test_unreplicated_blocks_are_lost_not_moved(self):
        mendel = build(replication=1)
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        unique = set(victim.block_ids)
        victim.fail()
        plan = ReReplicator(mendel.index).plan(group)
        assert sorted(unique) == plan.lost
        assert all(move.block_id not in unique for move in plan.moves)

    def test_detector_view_excludes_suspected_placement(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        shunned = group.nodes[1]  # alive, but the detector thinks otherwise
        repairer = ReReplicator(
            mendel.index, is_alive=lambda node: node is not shunned
        )
        desired = repairer.desired_placement(group)
        assert desired[shunned.node_id] == set()


class TestSync:
    def test_death_repair_restores_replication_factor(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        victim.fail()
        repairer = ReReplicator(mendel.index)
        report = repairer.sync_group(group)
        assert report.blocks_streamed > 0
        assert report.blocks_lost == 0
        for block_id in mendel.index.blocks_of_group[group.group_id]:
            assert len(alive_holders_of(group, block_id)) == 2

    def test_rejoin_reconcile_exact_holders(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        victim.fail()
        repairer = ReReplicator(mendel.index)
        repairer.sync_group(group)  # over-replicates relative to canonical
        victim.recover()
        report = repairer.sync_group(group)
        assert report.blocks_dropped > 0  # temporary copies removed
        for block_id in mendel.index.blocks_of_group[group.group_id]:
            assert len(holders_of(group, block_id)) == 2

    def test_sync_is_idempotent(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        group.nodes[0].fail()
        repairer = ReReplicator(mendel.index)
        first = repairer.sync_group(group)
        second = repairer.sync_group(group)
        assert first.blocks_streamed > 0
        assert second.blocks_streamed == 0
        assert second.blocks_dropped == 0

    def test_bookkeeping_refreshed(self):
        mendel = build()
        group = mendel.index.topology.groups[0]
        victim = group.nodes[0]
        victim.fail()
        ReReplicator(mendel.index).sync_group(group)
        stats = mendel.index.stats.per_node_blocks
        for node in group.nodes:
            assert stats[node.node_id] == node.block_count
        for node in group.nodes:
            for block_id in node.block_ids:
                primary = mendel.index.node_of_block[block_id]
                assert group.node(primary).alive or primary == victim.node_id

    def test_node_that_gains_and_drops_rebuilds_in_build_order(self):
        """A node streamed a block it lost and stripped of one it should
        not hold, in the same sync, ends with a build's contents in a
        build's (ascending) order — the order that fixes its tree."""
        mendel = build()
        store = mendel.index.store
        group = mendel.index.topology.groups[0]
        node = group.nodes[0]
        canonical = list(node.block_ids)
        own = min(canonical)  # streamed back last, so it would sit last
        extra = next(
            bid for bid in sorted(mendel.index.blocks_of_group[group.group_id])
            if bid not in canonical
        )
        node.drop_blocks([own], store.codes_matrix)
        node.store_blocks(store.codes_matrix([extra]), [extra])

        report = ReReplicator(mendel.index).sync_group(group)
        assert report.blocks_streamed >= 1 and report.blocks_dropped >= 1
        assert node.block_ids == canonical == sorted(canonical)

    def test_a_split_keeps_its_retained_copies_until_it_settles(self):
        """Repair reconciles a group to the blocks placed on it; the copies
        an unsettled split keeps of the blocks it moved away are the
        split's to drop, so in-flight queries still find them."""
        mendel = build()
        index = mendel.index
        change = index.split_group("g00", settle=False)
        source = index.topology.group("g00")
        assert change.moved_blocks

        def held():
            return set().union(*(node.block_ids for node in source.nodes))

        before = held()
        assert before > index.blocks_of_group["g00"]
        report = ReReplicator(index).sync_group(source)
        assert report.blocks_dropped == 0 and held() == before
        change.settle()
        assert held() == index.blocks_of_group["g00"]

    def test_simulated_repair_matches_immediate_plan(self):
        charged = build()
        immediate = build()
        charged.index.topology.groups[0].nodes[0].fail()
        immediate.index.topology.groups[0].nodes[0].fail()

        sim = Simulation()
        net = Network(sim=sim)
        group = charged.index.topology.groups[0]
        repairer = ReReplicator(charged.index)
        done = sim.spawn(repairer.repair_proc(group, sim, net), name="repair")
        sim.run()
        report = done.value
        offline = ReReplicator(immediate.index).sync_group(
            immediate.index.topology.groups[0]
        )
        assert report.blocks_streamed == offline.blocks_streamed
        assert report.bytes_streamed == offline.bytes_streamed
        assert report.simulated_seconds > 0  # transfer + insert time charged
        assert sim.now == pytest.approx(report.simulated_seconds)


class TestIndexEntryPoints:
    def test_fail_node_with_rereplication(self):
        mendel = build()
        victim_id = mendel.index.topology.groups[0].nodes[0].node_id
        version = mendel.index_version
        mendel.fail_node(victim_id, rereplicate=True)
        group = mendel.index.topology.groups[0]
        for block_id in mendel.index.blocks_of_group[group.group_id]:
            assert len(alive_holders_of(group, block_id)) == 2
        assert mendel.index_version > version

    def test_recover_node_reconciles(self):
        mendel = build()
        victim_id = mendel.index.topology.groups[0].nodes[0].node_id
        mendel.fail_node(victim_id, rereplicate=True)
        mendel.recover_node(victim_id)
        group = mendel.index.topology.groups[0]
        for block_id in mendel.index.blocks_of_group[group.group_id]:
            assert len(holders_of(group, block_id)) == 2

    def test_repair_all_groups(self):
        mendel = build()
        for group in mendel.index.topology.groups:
            group.nodes[0].fail()
        report = mendel.repair()
        assert report.blocks_streamed > 0
        for group in mendel.index.topology.groups:
            for block_id in mendel.index.blocks_of_group[group.group_id]:
                assert len(alive_holders_of(group, block_id)) == 2
