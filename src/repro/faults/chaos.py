"""The chaos controller: binds a fault schedule to one simulated run.

:class:`ChaosController` is created by the query engine when a
:class:`~repro.faults.schedule.FaultSchedule` is passed into
``run_batch(..., faults=...)``.  It

1. schedules every scripted :class:`~repro.faults.schedule.FaultEvent` on
   the run's simulation clock (injection);
2. starts one heartbeat monitor per storage group
   (:class:`~repro.faults.detector.FailureDetector`) so failures are
   *detected*, not known omnisciently (detection);
3. reacts to detected deaths by spawning re-replication processes, and to
   restarts by reconciling the rejoining node's group back to canonical
   placement (recovery) — repairs for the same group are chained so two
   syncs never interleave.

Everything it does is visible afterwards through :attr:`log` (a timeline of
``ChaosLogEntry``) and :meth:`summary`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.group import StorageGroup
from repro.cluster.node import StorageNode
from repro.faults.detector import FailureDetector
from repro.faults.repair import RepairReport, ReReplicator
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.events import EventLog
from repro.sim.engine import SimEvent, Simulation
from repro.sim.network import Network
from repro.store.scrub import IntegrityScrubber, ScrubFinding


@dataclass(frozen=True)
class ChaosLogEntry:
    """One timeline entry: an injected event, a detection, or a repair."""

    time: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time * 1e3:9.3f} ms] {self.kind:>12}  {self.detail}"


class ChaosController:
    """Drives one fault schedule against one deployment on one clock."""

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        index,
        schedule: FaultSchedule,
        event_log: EventLog | None = None,
        recorder=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.index = index
        self.schedule = schedule
        self.events = event_log
        self.log: list[ChaosLogEntry] = []
        self.repairs = RepairReport()
        self.detector: FailureDetector | None = None
        if schedule.heartbeat_interval > 0:
            self.detector = FailureDetector(
                sim=sim,
                net=net,
                interval=schedule.heartbeat_interval,
                miss_threshold=schedule.miss_threshold,
                stop_at=schedule.effective_horizon,
                on_dead=self._on_dead,
                on_rejoin=self._on_rejoin,
                event_log=event_log,
            )
        self.repairer = ReReplicator(index, is_alive=self._is_alive)
        self.scrubber: IntegrityScrubber | None = None
        if schedule.scrub_interval > 0:
            self.scrubber = IntegrityScrubber(
                index,
                is_alive=self._is_alive,
                event_log=event_log,
                recorder=recorder,
                heal=self._scrub_heal,
            )
        self._repair_tail: dict[str, SimEvent] = {}
        self._nodes = {node.node_id: node for node in index.topology.nodes}

    # -- wiring ----------------------------------------------------------------

    def install(self) -> None:
        """Schedule the scripted events and start the group monitors."""
        for event in self.schedule.ordered():
            self.sim.call_later(event.at, self._apply, event)
        if self.detector is not None:
            for group in self.index.topology.groups:
                self.sim.spawn(
                    self.detector.monitor_proc(group),
                    name=f"heartbeat:{group.group_id}",
                )
        if self.scrubber is not None:
            self.sim.spawn(
                self.scrubber.scrub_proc(
                    self.sim,
                    self.schedule.scrub_interval,
                    self.schedule.effective_horizon,
                ),
                name="scrubber",
            )

    def _is_alive(self, node: StorageNode) -> bool:
        """Placement liveness: ground truth intersected with the detector's
        view (repair never targets a node it believes — or knows — dead)."""
        if not node.alive:
            return False
        if self.detector is not None:
            return self.detector.considers_alive(node)
        return True

    # -- event application -----------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)

    def _apply_crash(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.fail()
        self._note("crash", f"{event.node} crash-stopped", actor=event.node)

    def _apply_restart(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.recover()
        if self.detector is not None:
            self.detector.mark_recovered(node)
        self._note("restart", f"{event.node} rejoined", actor=event.node)
        if self.schedule.auto_repair:
            self._schedule_repair(
                self.index.topology.group(node.group_id),
                f"reconcile after {event.node} rejoin",
            )

    def _apply_slowdown(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.slow_down(event.factor)
        self._note("slowdown", f"{event.node} at {event.factor:g}x speed",
                   actor=event.node)
        if event.duration is not None:
            self.sim.call_later(event.duration, self._restore_speed, node)

    def _apply_restore_speed(self, event: FaultEvent) -> None:
        self._restore_speed(self._nodes[event.node])

    def _restore_speed(self, node: StorageNode) -> None:
        node.restore_speed()
        self._note("restore", f"{node.node_id} back to full speed",
                   actor=node.node_id)

    def _apply_drop_link(self, event: FaultEvent) -> None:
        self.net.set_link_fault(
            event.src, event.dst, drop=event.drop, extra_delay=event.extra_delay
        )
        self._note(
            "drop_link",
            f"{event.src}<->{event.dst} drop={event.drop:g} "
            f"delay+={event.extra_delay:g}s",
        )

    def _apply_heal_link(self, event: FaultEvent) -> None:
        self.net.clear_link_fault(event.src, event.dst)
        self._note("heal_link", f"{event.src}<->{event.dst} healed")

    def _apply_partition(self, event: FaultEvent) -> None:
        self.net.set_partition(*event.sides)
        sides = " | ".join(",".join(sorted(side)) for side in event.sides)
        self._note("partition", sides)

    def _apply_heal_partition(self, event: FaultEvent) -> None:
        self.net.clear_partition()
        self._note("heal", "partition healed")

    def _apply_bit_flip(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        try:
            node.durable.corrupt_block(event.block, event.bit)
        except KeyError:
            # The target block never landed on (or already left) this node's
            # durable state; cosmic rays don't get to pick their victim.
            self._note(
                "bit_flip",
                f"{event.node}: block {event.block} not held durably "
                "(flip missed)",
                actor=event.node,
            )
            return
        self._note(
            "bit_flip",
            f"{event.node}: bit {event.bit} of durable block "
            f"{event.block} flipped",
            actor=event.node,
        )

    def _apply_torn_write(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.disk.tear_next_append()
        self._note(
            "torn_write",
            f"{event.node}: next durable append will tear",
            actor=event.node,
        )

    def _apply_disk_full(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.disk.full = True
        self._note("disk_full", f"{event.node}: device out of space",
                   actor=event.node)

    def _apply_disk_free(self, event: FaultEvent) -> None:
        node = self._nodes[event.node]
        node.disk.full = False
        self._note("disk_free", f"{event.node}: device space restored",
                   actor=event.node)

    # -- detection callbacks ---------------------------------------------------

    def _on_dead(self, node: StorageNode) -> None:
        truth = "dead" if not node.alive else "falsely suspected"
        self._note("detected", f"{node.node_id} declared dead ({truth})",
                   actor=node.node_id)
        if self.schedule.auto_repair:
            self._schedule_repair(
                self.index.topology.group(node.group_id),
                f"re-replicate {node.node_id}",
            )

    def _on_rejoin(self, node: StorageNode) -> None:
        self._note("rejoin", f"{node.node_id} acked again", actor=node.node_id)
        if self.schedule.auto_repair:
            self._schedule_repair(
                self.index.topology.group(node.group_id),
                f"reconcile after {node.node_id} rejoin",
            )

    # -- scrub healing ---------------------------------------------------------

    def _scrub_heal(
        self, group: StorageGroup, findings: list[ScrubFinding]
    ) -> None:
        """The scrubber quarantined corrupt copies: chain their heal onto
        the group's repair tail (re-replication streams each block back
        from a replica that still verifies)."""
        blocks = sorted({finding.block_id for finding in findings})
        self._note(
            "scrub_heal",
            f"{group.group_id}: healing {len(blocks)} quarantined "
            f"block(s) {blocks[:8]}",
            actor=group.group_id,
        )
        self._schedule_repair(
            group, f"scrub heal of {len(blocks)} corrupt copies"
        )

    # -- repair chaining -------------------------------------------------------

    def _schedule_repair(self, group: StorageGroup, reason: str) -> None:
        previous = self._repair_tail.get(group.group_id)

        def proc():
            if previous is not None and not previous.fired:
                yield previous
            report = yield from self.repairer.repair_proc(group, self.sim, self.net)
            self.repairs = self.repairs.merge(report)
            self._note(
                "repair",
                f"{group.group_id}: {reason} — {report.blocks_streamed} streamed, "
                f"{report.blocks_dropped} dropped, {report.blocks_lost} lost",
                actor=group.group_id,
            )

        self._repair_tail[group.group_id] = self.sim.spawn(
            proc(), name=f"repair:{group.group_id}"
        )

    # -- observability ---------------------------------------------------------

    def _note(self, kind: str, detail: str, actor: str = "chaos") -> None:
        self.log.append(ChaosLogEntry(time=self.sim.now, kind=kind, detail=detail))
        if self.events is not None:
            self.events.emit(kind, actor, detail, sim_time=self.sim.now)

    def pending_repairs(self) -> int:
        """Repair chains scheduled but not yet finished — the backlog the
        repair_backlog SLO watches."""
        return sum(
            1 for tail in self._repair_tail.values() if not tail.fired
        )

    def summary(self) -> dict:
        """Counters for reports and the ``repro chaos`` CLI."""
        out = {
            "events_scripted": len(self.schedule.events),
            "log_entries": len(self.log),
            "blocks_streamed": self.repairs.blocks_streamed,
            "bytes_streamed": self.repairs.bytes_streamed,
            "blocks_dropped": self.repairs.blocks_dropped,
            "blocks_lost": self.repairs.blocks_lost,
            "messages_dropped": self.net.stats.dropped,
        }
        if self.detector is not None:
            out.update(
                {
                    "pings": self.detector.stats.pings,
                    "deaths_declared": self.detector.stats.deaths_declared,
                    "rejoins_detected": self.detector.stats.rejoins_detected,
                    "false_suspicions": self.detector.stats.false_suspicions,
                }
            )
        if self.scrubber is not None:
            report = self.scrubber.report
            out.update(
                {
                    "scrub_passes": report.passes,
                    "replicas_checked": report.replicas_checked,
                    "corruptions_detected": report.mismatches,
                    "blocks_quarantined": report.quarantined,
                    "heals_requested": report.heals_requested,
                }
            )
        return out
