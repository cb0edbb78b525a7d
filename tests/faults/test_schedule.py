"""FaultEvent / FaultSchedule construction and validation."""

import pytest

from repro.faults.schedule import FaultEvent, FaultSchedule, kill_and_recover

pytestmark = pytest.mark.chaos


class TestFaultEvent:
    def test_constructors_set_kind(self):
        assert FaultEvent.crash(1.0, "g00.n0").kind == "crash"
        assert FaultEvent.restart(2.0, "g00.n0").kind == "restart"
        assert FaultEvent.slowdown(1.0, "g00.n0", 0.5).kind == "slowdown"
        assert FaultEvent.restore_speed(1.0, "g00.n0").kind == "restore_speed"
        assert FaultEvent.drop_link(1.0, "a", "b").kind == "drop_link"
        assert FaultEvent.heal_link(1.0, "a", "b").kind == "heal_link"
        assert FaultEvent.partition(1.0, ["a"], ["b"]).kind == "partition"
        assert FaultEvent.heal_partition(1.0).kind == "heal_partition"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at=0.0, kind="meteor")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at"):
            FaultEvent.crash(-1.0, "g00.n0")

    def test_node_events_need_node(self):
        with pytest.raises(ValueError, match="node id"):
            FaultEvent(at=0.0, kind="crash")

    def test_link_events_need_endpoints(self):
        with pytest.raises(ValueError, match="src and dst"):
            FaultEvent(at=0.0, kind="drop_link", src="a")

    def test_slowdown_factor_validated(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent.slowdown(0.0, "n", factor=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent.slowdown(0.0, "n", factor=0.5, duration=-1.0)

    def test_drop_probability_validated(self):
        with pytest.raises(ValueError, match="drop"):
            FaultEvent.drop_link(0.0, "a", "b", drop=1.5)

    def test_partition_needs_sides(self):
        with pytest.raises(ValueError, match="side"):
            FaultEvent(at=0.0, kind="partition")

    def test_sides_frozen(self):
        event = FaultEvent.partition(0.0, ["a", "b"], ["c"])
        assert event.sides == (frozenset({"a", "b"}), frozenset({"c"}))


class TestFaultSchedule:
    def test_ordered_is_stable_for_ties(self):
        first = FaultEvent.crash(1.0, "a")
        second = FaultEvent.crash(1.0, "b")
        later = FaultEvent.crash(0.5, "c")
        schedule = FaultSchedule(events=(first, second, later))
        assert schedule.ordered() == [later, first, second]

    def test_effective_horizon_covers_detection(self):
        schedule = FaultSchedule(
            events=(FaultEvent.crash(1.0, "a"),),
            heartbeat_interval=0.1,
            miss_threshold=3,
        )
        assert schedule.effective_horizon == pytest.approx(1.0 + 0.1 * 6)

    def test_explicit_horizon_wins(self):
        schedule = FaultSchedule(
            events=(FaultEvent.crash(1.0, "a"),), horizon=5.0
        )
        assert schedule.effective_horizon == 5.0

    def test_miss_threshold_validated(self):
        with pytest.raises(ValueError, match="miss_threshold"):
            FaultSchedule(miss_threshold=0)

    def test_kill_and_recover_builds_pairs(self):
        schedule = kill_and_recover(["a", "b"], kill_at=1.0, recover_at=2.0,
                                    seed=9)
        kinds = sorted((e.kind, e.node) for e in schedule.events)
        assert kinds == [
            ("crash", "a"), ("crash", "b"),
            ("restart", "a"), ("restart", "b"),
        ]
        assert schedule.seed == 9

    def test_kill_and_recover_rejects_bad_window(self):
        with pytest.raises(ValueError, match="recover_at"):
            kill_and_recover(["a"], kill_at=2.0, recover_at=1.0)
