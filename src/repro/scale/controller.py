"""The autoscaler controller: signals -> policy -> topology actions.

One :class:`AutoScaler` watches one deployment through its
:class:`~repro.obs.health.HealthMonitor` and executes at most one
topology action per tick:

* ``add_node`` — tier-2 growth of the hottest group (streaming block
  rebalance via the group's placement hash);
* ``split_group`` — tier-1 repartition of a skewed group, refining the
  vp-prefix frontier one level when the group owns a single prefix;
* ``merge_groups`` / ``remove_node`` — scale-in after a sustained calm
  stretch, never below the deployment's configured shape and never
  violating the replication factor (the index refuses).

In a simulation, splits and merges run in two phases for in-flight query
correctness: the routing update and block *copy* happen at action time,
but the old copies are dropped only on a later tick
(``TopologyChange.settle``) — a dual-ownership window during which queries
routed under either table version still find every block.

Clocking mirrors the health monitor: chaos/scenario runs spawn
:meth:`AutoScaler.tick_proc` on the simulation.  The serving gateway runs
:meth:`AutoScaler.maybe_tick` on its one engine worker — queued by its
STATS/HEALTH/ALERTS reads, run by its SCALE verb — so every tick lands
between two queries, and a wall-clock change settles inside its action.
All decisions are pure functions of the observed frame, so a run is
byte-deterministic under a fixed ``CHAOS_SEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.index import MendelIndex, TopologyChange
from repro.obs.events import EventLog
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.scale.policy import (
    ACTION_ADD_NODE,
    ACTION_HOLD,
    ACTION_MERGE_GROUPS,
    ACTION_REMOVE_NODE,
    ACTION_SPLIT_GROUP,
    ScaleDecision,
    ScalerPolicy,
    ScaleSignals,
)


@dataclass
class _PendingSettle:
    """A two-phase topology change awaiting its settle tick."""

    change: TopologyChange
    #: nodes whose storage is dropped at settle (merge sources)
    drained_nodes: tuple[str, ...] = ()
    #: minimum ticks before the settle is considered
    ticks_left: int = 0
    #: when the change was executed (in-flight cutoff for safe settling)
    created_at: float = 0.0


@dataclass
class AutoScaler:
    """Elastic control loop over one :class:`MendelIndex`.

    Parameters
    ----------
    index:
        The deployment to scale.
    monitor:
        Health monitor supplying firing alerts and burn rates; the
        scaler shares its clock and event log unless overridden.
    policy:
        Decision thresholds; defaults to :class:`ScalerPolicy`.
    interval:
        Tick spacing; defaults to twice the monitor's interval (scaling
        decisions should see at least one fresh health tick each).
    queue_depth_fn / queue_capacity:
        Admission-queue occupancy source (the gateway wires these).
    event_log:
        Topology-change event destination; defaults to the monitor's.
    wall:
        ``True`` on the gateway: events carry wall time, and two-phase
        changes settle inside the action — the gateway ticks on its engine
        worker, between queries, so no query is in flight to protect.
    settle_ticks:
        Minimum ticks a two-phase change keeps its dual-ownership window
        open (sim mode only).  When the engine wires
        :attr:`inflight_before`, the window additionally stays open until
        every query that arrived before the change has completed — no
        query ever straddles a copy drop.
    """

    index: MendelIndex
    monitor: HealthMonitor
    policy: ScalerPolicy = field(default_factory=ScalerPolicy)
    interval: float | None = None
    queue_depth_fn: Callable[[], int] | None = None
    queue_capacity: int | None = None
    event_log: EventLog | None = None
    registry: MetricsRegistry | None = None
    wall: bool = False
    settle_ticks: int = 2
    #: set by ``run_batch``: count of queries that arrived before a cutoff
    #: time and are still in flight (guards settles)
    inflight_before: Callable[[float], int] | None = None

    def __post_init__(self) -> None:
        if self.interval is None:
            self.interval = 2.0 * self.monitor.interval
        if self.event_log is None:
            self.event_log = self.monitor.events
        if self.registry is None:
            self.registry = default_registry()
        config = self.index.config
        self._baseline_group_size = config.group_size
        self._baseline_group_count = config.group_count
        self._replication = config.replication
        self._cooldown = 0
        self._idle_ticks = 0
        self._pending: list[_PendingSettle] = []
        self._last_tick: float | None = None
        #: (now, decision) per tick, newest last
        self.decisions: list[tuple[float, ScaleDecision]] = []
        #: executed actions, as event-like dicts
        self.actions: list[dict] = []
        self._m_ticks = self.registry.counter(
            "repro_scaler_ticks_total", "Autoscaler control-loop ticks"
        )
        self._m_decisions = self.registry.counter(
            "repro_scaler_decisions_total",
            "Autoscaler decisions by action (including holds)",
            ("action",),
        )
        self._m_actions = self.registry.counter(
            "repro_scaler_actions_total",
            "Topology actions the autoscaler executed",
            ("action",),
        )
        self._m_groups = self.registry.gauge(
            "repro_scaler_groups", "Storage groups in the scaled topology"
        )
        self._m_nodes = self.registry.gauge(
            "repro_scaler_nodes", "Storage nodes in the scaled topology"
        )

    # -- signal gathering ------------------------------------------------------

    def signals(self, now: float) -> ScaleSignals:
        """Build the immutable observation frame for *now*."""
        topology = self.index.topology
        group_blocks = {
            g.group_id: len(self.index.blocks_of_group[g.group_id])
            for g in topology.groups
        }
        group_sizes = {g.group_id: len(g.nodes) for g in topology.groups}
        unhealthy = frozenset(
            g.group_id
            for g in topology.groups
            if any((not n.alive) or n.suspected for n in g.nodes)
        )
        states = self.monitor.slo_engine.states
        firing = tuple(sorted(self.monitor.alerts_firing()))
        max_burn = max(
            (st.burn_fast for st in states.values()), default=0.0
        )
        depth = self.queue_depth_fn() if self.queue_depth_fn else 0
        return ScaleSignals(
            now=now,
            firing=firing,
            max_burn=max_burn,
            queue_depth=depth,
            queue_capacity=self.queue_capacity,
            group_blocks=group_blocks,
            group_sizes=group_sizes,
            unhealthy_groups=unhealthy,
            idle_ticks=self._idle_ticks,
            baseline_group_size=self._baseline_group_size,
            baseline_group_count=self._baseline_group_count,
            replication=self._replication,
        )

    # -- the control loop ------------------------------------------------------

    def tick(self, now: float) -> ScaleDecision:
        """One control-loop iteration: settle, observe, decide, act."""
        self._last_tick = now
        self._m_ticks.inc()
        self._settle_pending(now)
        frame = self.signals(now)
        if self.policy.is_hot(frame):
            self._idle_ticks = 0
        else:
            self._idle_ticks += 1
            frame = replace(frame, idle_ticks=self._idle_ticks)
        decision = self.policy.decide(frame)
        if decision.action != ACTION_HOLD:
            if self._cooldown > 0:
                self._cooldown -= 1
                decision = ScaleDecision(
                    ACTION_HOLD,
                    reason=f"cooldown ({self._cooldown + 1} ticks): "
                    f"wanted {decision.action}",
                )
            else:
                self._execute(now, decision, frame)
                self._cooldown = self.policy.cooldown_ticks
        else:
            self._cooldown = max(0, self._cooldown - 1)
        self.decisions.append((now, decision))
        self._m_decisions.labels(action=decision.action).inc()
        topology = self.index.topology
        self._m_groups.set(float(len(topology.groups)))
        self._m_nodes.set(float(len(topology.nodes)))
        return decision

    def tick_proc(self, sim, stop_at: float):
        """Generator process ticking the scaler on a simulation clock.

        Terminates before *stop_at* (the heap must drain) and settles any
        pending two-phase change on exit so the run ends quiesced.
        """
        while sim.now + self.interval <= stop_at:
            yield self.interval
            self.tick(sim.now)
        self.flush(sim.now)

    def maybe_tick(self, now: float) -> bool:
        """Lazy gateway clocking (on the engine worker): tick if an
        interval elapsed since the last one.  Returns whether a tick ran."""
        if self._last_tick is not None and now - self._last_tick < self.interval:
            return False
        self.tick(now)
        return True

    def flush(self, now: float) -> None:
        """Settle every pending two-phase change immediately."""
        self._settle_pending(now, force=True)

    # -- execution -------------------------------------------------------------

    def _settle_pending(self, now: float, force: bool = False) -> None:
        keep: list[_PendingSettle] = []
        for item in self._pending:
            item.ticks_left -= 1
            straddlers = (
                self.inflight_before(item.created_at)
                if self.inflight_before is not None
                else 0
            )
            if (item.ticks_left > 0 or straddlers) and not force:
                keep.append(item)
                continue
            item.change.settle()
            for node_id in item.drained_nodes:
                self._emit(
                    "node_drained", now, node_id,
                    f"{node_id} drained after {item.change.kind} of "
                    f"{item.change.source}",
                    group=item.change.source, phase="settle",
                )
        self._pending = keep

    def _flush_changed(self, *group_ids: str | None) -> None:
        """Checkpoint the WALs of every group a scale action touched.

        A topology change moves blocks in bulk; flushing folds that burst
        of WAL inserts into a compact snapshot so a node that crashes right
        after the change recovers the *new* placement cheaply instead of
        replaying the whole migration."""
        for group_id in {g for g in group_ids if g is not None}:
            try:
                group = self.index.topology.group(group_id)
            except KeyError:
                continue  # merged-away source group no longer exists
            for node in group.nodes:
                if node.alive:
                    node.flush_durable()

    def _execute(
        self, now: float, decision: ScaleDecision, frame: ScaleSignals
    ) -> None:
        cause = ",".join(frame.firing) or (
            "queue" if frame.queue_capacity else "idle"
        )
        index = self.index
        action = decision.action
        if action == ACTION_ADD_NODE:
            change = index.expand_group(decision.group, settle=self.wall)
            self._defer_settle(change, now)
            self._emit(
                "node_added", now, change.target, decision.reason,
                group=decision.group, moved=change.moved_blocks,
                cause=cause,
            )
        elif action == ACTION_REMOVE_NODE:
            group = index.topology.group(decision.group)
            node_id = group.nodes[-1].node_id
            index.remove_node(node_id)
            self._emit(
                "node_drained", now, node_id, decision.reason,
                group=decision.group, cause=cause,
            )
        elif action == ACTION_SPLIT_GROUP:
            change = index.split_group(decision.group, settle=self.wall)
            self._defer_settle(change, now)
            self._emit(
                "group_split", now, decision.group, decision.reason,
                target=change.target, moved=change.moved_blocks,
                refined=list(change.refined) if change.refined else None,
                cause=cause,
            )
        elif action == ACTION_MERGE_GROUPS:
            source_nodes = tuple(
                n.node_id for n in index.topology.group(decision.group).nodes
            )
            change = index.merge_groups(
                decision.group, decision.target, settle=self.wall
            )
            self._defer_settle(change, now, source_nodes)
            self._emit(
                "group_merged", now, decision.target, decision.reason,
                source=decision.group, moved=change.moved_blocks,
                cause=cause,
            )
        else:  # pragma: no cover - the ladder never emits other actions
            raise ValueError(f"unexpected scale action {action!r}")
        self._flush_changed(
            decision.group, decision.target,
            change.target if action == ACTION_SPLIT_GROUP else None,
        )
        self._m_actions.labels(action=action).inc()
        self.actions.append(
            {"at": now, "cause": cause, **decision.to_dict()}
        )

    def _defer_settle(self, change: TopologyChange, now: float,
                      drained_nodes: tuple[str, ...] = ()) -> None:
        """Sim mode: keep *change*'s dual-ownership window open until a
        later tick (wall mode settled it inside the action)."""
        if not self.wall:
            self._pending.append(_PendingSettle(
                change, drained_nodes, self.settle_ticks, created_at=now
            ))

    def _emit(
        self, kind: str, now: float, actor: str, message: str, **fields
    ) -> None:
        clean = {k: v for k, v in fields.items() if v is not None}
        self.event_log.emit(
            kind, actor, message,
            sim_time=None if self.wall else now, **clean,
        )

    # -- introspection ---------------------------------------------------------

    def status(self) -> dict:
        """Dashboard frame for the SCALE verb / ``repro watch``."""
        topology = self.index.topology
        last = self.decisions[-1] if self.decisions else None
        return {
            "interval": self.interval,
            "wall": self.wall,
            "cooldown_remaining": self._cooldown,
            "idle_ticks": self._idle_ticks,
            "pending_settles": len(self._pending),
            "ticks": len(self.decisions),
            "last_decision": (
                {"at": last[0], **last[1].to_dict()} if last else None
            ),
            "actions": list(self.actions),
            "topology": {
                g.group_id: {
                    "nodes": len(g.nodes),
                    "blocks": g.block_count,
                }
                for g in topology.groups
            },
            "index_version": self.index.version,
        }
