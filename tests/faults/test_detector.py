"""Heartbeat failure detection over lossy links."""

import pytest

from repro.cluster.group import StorageGroup
from repro.cluster.node import StorageNode
from repro.faults.detector import FailureDetector
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.sim.engine import Simulation
from repro.sim.network import Network

pytestmark = pytest.mark.chaos


def make_group(n=3, group_id="g00"):
    nodes = [
        StorageNode(
            node_id=f"{group_id}.n{i}",
            group_id=group_id,
            metric_factory=lambda: default_distance(PROTEIN),
            segment_length=8,
            rng_seed=i + 1,
        )
        for i in range(n)
    ]
    return StorageGroup(group_id=group_id, nodes=nodes)


def run_detector(group, sim, net, rounds=6, interval=0.01, **kwargs):
    detector = FailureDetector(
        sim=sim, net=net, interval=interval,
        stop_at=rounds * interval + interval / 2, **kwargs,
    )
    sim.spawn(detector.monitor_proc(group), name="monitor")
    return detector


class TestValidation:
    def test_interval_positive(self):
        sim = Simulation()
        with pytest.raises(ValueError, match="interval"):
            FailureDetector(sim=sim, net=Network(), interval=0.0)

    def test_miss_threshold_validated(self):
        sim = Simulation()
        with pytest.raises(ValueError, match="miss_threshold"):
            FailureDetector(sim=sim, net=Network(), interval=0.01,
                            miss_threshold=0)


class TestDetection:
    def test_healthy_group_stays_alive(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        detector = run_detector(group, sim, net)
        sim.run()
        assert detector.dead == frozenset()
        assert detector.stats.pings > 0
        assert detector.stats.deaths_declared == 0

    def test_dead_node_declared_after_threshold(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        victim = group.nodes[1]
        deaths = []
        detector = run_detector(
            group, sim, net, miss_threshold=3, on_dead=deaths.append
        )
        sim.call_later(0.015, victim.fail)  # mid-run, between rounds 1 and 2
        sim.run()
        assert victim.node_id in detector.dead
        assert [node.node_id for node in deaths] == [victim.node_id]
        assert not detector.considers_alive(victim)
        # Declared exactly once even though later rounds keep missing.
        assert detector.stats.deaths_declared == 1
        assert detector.stats.false_suspicions == 0

    def test_suspected_before_declared(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        victim = group.nodes[2]
        victim.fail()
        detector = FailureDetector(
            sim=sim, net=net, interval=0.01, miss_threshold=3, stop_at=0.015
        )
        sim.spawn(detector.monitor_proc(group), name="monitor")
        sim.run()  # exactly one round: one miss
        assert victim.suspected
        assert victim.node_id not in detector.dead

    def test_rejoin_detected(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        victim = group.nodes[1]
        rejoins = []
        detector = run_detector(
            group, sim, net, rounds=12, miss_threshold=2,
            on_rejoin=rejoins.append,
        )
        sim.call_later(0.005, victim.fail)
        sim.call_later(0.065, victim.recover)
        sim.run()
        assert victim.node_id not in detector.dead
        assert [node.node_id for node in rejoins] == [victim.node_id]
        assert detector.stats.rejoins_detected == 1

    def test_lossy_link_causes_false_suspicion(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        coordinator = group.entry_point()
        target = group.nodes[1]
        net.set_link_fault(coordinator.node_id, target.node_id, drop=1.0)
        detector = run_detector(group, sim, net, rounds=8, miss_threshold=3)
        sim.run()
        assert target.alive  # ground truth: never died
        assert target.node_id in detector.dead  # the detector's (wrong) view
        assert detector.stats.false_suspicions == 1

    def test_mark_recovered_clears_state(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        victim = group.nodes[1]
        detector = run_detector(group, sim, net, miss_threshold=2)
        victim.fail()
        sim.run()
        assert victim.node_id in detector.dead
        victim.recover()
        detector.mark_recovered(victim)
        assert detector.considers_alive(victim)
        assert not victim.suspected

    def test_monitor_terminates_at_stop_at(self):
        sim = Simulation()
        net = Network(rng=0)
        group = make_group()
        run_detector(group, sim, net, rounds=4, interval=0.01)
        final = sim.run()  # must drain, not loop forever
        assert final <= 0.05 + 0.01
