"""Lossy-link and partition extensions of the simulated network."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.network import LinkFault, Network

pytestmark = pytest.mark.chaos


@pytest.fixture()
def net():
    return Network(sim=Simulation(), rng=5)


class TestLinkFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="drop"):
            LinkFault(drop=2.0)
        with pytest.raises(ValueError, match="extra_delay"):
            LinkFault(extra_delay=-1.0)

    def test_extra_delay_added(self, net):
        clean = net.delay_for("a", "b", 1000)
        net.set_link_fault("a", "b", extra_delay=0.01)
        assert net.delay_for("a", "b", 1000) == pytest.approx(clean + 0.01)
        # Symmetric by default.
        assert net.delay_for("b", "a", 1000) == pytest.approx(clean + 0.01)
        net.clear_link_fault("a", "b")
        assert net.delay_for("a", "b", 1000) == pytest.approx(clean)

    def test_drop_one_link_only(self, net):
        net.set_link_fault("a", "b", drop=1.0)
        delivered, _ = net.try_transfer("a", "b", 100)
        assert not delivered
        assert net.stats.dropped == 1
        delivered, _ = net.try_transfer("a", "c", 100)
        assert delivered

    def test_clean_links_never_draw_rng(self, net):
        """Fault-free delivery must not consume randomness: attaching an
        unused seed cannot perturb an otherwise fault-free run."""
        state_before = net._gen.bit_generator.state
        for _ in range(10):
            delivered, _ = net.try_transfer("a", "b", 100)
            assert delivered
        assert net._gen.bit_generator.state == state_before

    def test_drop_sequence_deterministic_per_seed(self):
        def outcomes(seed):
            net = Network(sim=Simulation(), rng=seed)
            net.set_link_fault("a", "b", drop=0.5)
            return [net.try_transfer("a", "b", 100)[0] for _ in range(50)]

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)  # astronomically unlikely to match

    def test_immune_ids_never_faulted(self, net):
        net.set_link_fault("client", "a", drop=1.0)
        delivered, _ = net.try_transfer("client", "a", 100)
        assert delivered
        assert net.link_fault("a", "client") is None

    def test_default_fault_applies_to_unlisted_links(self):
        net = Network(sim=Simulation(), rng=1,
                      default_fault=LinkFault(drop=1.0))
        assert not net.try_transfer("x", "y", 10)[0]
        # Loopback is exempt from the default fault.
        assert net.try_transfer("x", "x", 10)[0]


class TestPartition:
    def test_cross_partition_blocked_within_side_ok(self, net):
        net.set_partition({"a", "b"}, {"c"})
        assert net.partitioned("a", "c")
        assert not net.partitioned("a", "b")
        delivered, _ = net.try_transfer("a", "c", 100)
        assert not delivered
        assert net.try_transfer("a", "b", 100)[0]

    def test_unlisted_ids_form_implicit_side(self, net):
        net.set_partition({"a"})
        assert net.partitioned("a", "z")
        assert not net.partitioned("y", "z")

    def test_clear_partition_restores(self, net):
        net.set_partition({"a"}, {"b"})
        net.clear_partition()
        assert not net.partitioned("a", "b")
        assert net.try_transfer("a", "b", 100)[0]

    def test_immune_crosses_partitions(self, net):
        net.set_partition({"a"}, {"b"})
        assert not net.partitioned("client", "a")
        assert net.try_transfer("client", "b", 100)[0]

    def test_sides_validated(self, net):
        with pytest.raises(ValueError, match="disjoint"):
            net.set_partition({"a", "b"}, {"b", "c"})
        with pytest.raises(ValueError, match="non-empty"):
            net.set_partition(set())

    def test_dropped_counter_in_merge(self, net):
        net.set_partition({"a"}, {"b"})
        net.try_transfer("a", "b", 100)
        merged = net.stats.merge(net.stats)
        assert merged.dropped == 2
