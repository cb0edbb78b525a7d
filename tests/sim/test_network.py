"""Tests for the simulated LAN (repro.sim.network)."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.network import Network, NetworkStats


@pytest.fixture()
def net():
    return Network()


class TestDelayModel:
    def test_base_plus_bandwidth(self, net):
        d = net.delay_for("a", "b", 1_000_000)
        assert d == pytest.approx(net.base_latency + 1_000_000 / net.bandwidth)

    def test_loopback_is_local_dispatch(self, net):
        assert net.delay_for("a", "a", 10**9) == net.local_dispatch

    def test_zero_bytes(self, net):
        assert net.delay_for("a", "b", 0) == pytest.approx(net.base_latency)

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(ValueError):
            net.delay_for("a", "b", -1)

    def test_jitter_bounded(self):
        net = Network(jitter=0.2, rng=1)
        base = Network().delay_for("a", "b", 1000)
        for _ in range(100):
            d = net.delay_for("a", "b", 1000)
            assert 0.8 * base <= d <= 1.2 * base

    def test_jitter_deterministic_with_seed(self):
        a = Network(jitter=0.1, rng=5)
        b = Network(jitter=0.1, rng=5)
        assert [a.delay_for("x", "y", 10) for _ in range(10)] == [
            b.delay_for("x", "y", 10) for _ in range(10)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            Network(base_latency=-1)
        with pytest.raises(ValueError):
            Network(bandwidth=0)


class TestSend:
    def test_handler_scheduled_after_delay(self):
        """A process that yields a transfer's delay resumes when the
        message arrives."""
        sim = Simulation()
        net = Network()
        got = []

        def sender():
            yield net.transfer("a", "b", 100)
            got.append(sim.now)

        sim.spawn(sender())
        sim.run()
        assert got == [pytest.approx(net.delay_for("a", "b", 100))]

    def test_stats_accumulate(self, net):
        net.transfer("a", "b", 100)
        net.transfer("a", "a", 50)
        assert net.stats.messages == 2
        assert net.stats.loopback_messages == 1
        assert net.stats.bytes_sent == 100  # loopback not counted

    def test_transfer_counts_without_callback(self, net):
        delay = net.transfer("a", "b", 200)
        assert delay == pytest.approx(net.delay_for("a", "b", 200))
        assert net.stats.messages == 1
        assert net.stats.bytes_sent == 200


class TestNetworkStats:
    def test_merge(self):
        a = NetworkStats(messages=1, bytes_sent=10, loopback_messages=0)
        b = NetworkStats(messages=2, bytes_sent=20, loopback_messages=1)
        merged = a.merge(b)
        assert merged.messages == 3
        assert merged.bytes_sent == 30
        assert merged.loopback_messages == 1
