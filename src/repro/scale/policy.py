"""Autoscaling policy: pure decision logic over health + topology signals.

The policy is a *function*, not a process: given one immutable
:class:`ScaleSignals` frame it returns one :class:`ScaleDecision`.  All
state (cooldowns, idle counters, pending settles) lives in the controller
(:mod:`repro.scale.controller`), so the policy is trivially unit-testable
and — crucial for chaos reproducibility — byte-deterministic: equal
signal frames always produce equal decisions, with ties broken by group
id, never by dict order or randomness.

The decision ladder mirrors the paper's load story (Fig. 5 group skew):

* **hot** (an SLO burns or the admission queue nears capacity) —
  if one group holds most of the data, *split* it (tier-1 repartition,
  possibly refining the vp-prefix frontier one level); otherwise *add a
  node* to the hottest group (tier-2 growth);
* **calm for a while** — *merge* a near-empty surplus group away, or
  *drain* a node from the most over-provisioned group, never shrinking
  below the deployment's configured shape or the replication factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ACTION_HOLD = "hold"
ACTION_ADD_NODE = "add_node"
ACTION_REMOVE_NODE = "remove_node"
ACTION_SPLIT_GROUP = "split_group"
ACTION_MERGE_GROUPS = "merge_groups"

ACTIONS = (
    ACTION_HOLD,
    ACTION_ADD_NODE,
    ACTION_REMOVE_NODE,
    ACTION_SPLIT_GROUP,
    ACTION_MERGE_GROUPS,
)


@dataclass(frozen=True)
class ScaleSignals:
    """One immutable observation frame the policy decides on.

    Built by the controller from the health monitor (firing alerts, burn
    rates), the serving gateway (admission queue), and the index itself
    (primary-block ownership per group; healthier than folding exported
    gauges, which are collect-time callbacks).
    """

    now: float
    #: names of SLOs currently in warning/critical, sorted
    firing: tuple[str, ...] = ()
    #: max fast-window burn rate across all SLOs (context for reasons)
    max_burn: float = 0.0
    #: admission queue occupancy (0 / None outside the gateway)
    queue_depth: int = 0
    queue_capacity: int | None = None
    #: blocks placed on each group (from ``index.blocks_of_group``)
    group_blocks: dict[str, int] = field(default_factory=dict)
    #: member count per group
    group_sizes: dict[str, int] = field(default_factory=dict)
    #: groups with a dead or suspected member — never scaled in
    unhealthy_groups: frozenset[str] = frozenset()
    #: consecutive calm ticks observed by the controller
    idle_ticks: int = 0
    #: deployment shape: scale-in floor for group size / group count
    baseline_group_size: int = 1
    baseline_group_count: int = 1
    replication: int = 1

    @property
    def total_blocks(self) -> int:
        return sum(self.group_blocks.values())


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy wants done this tick (at most one action)."""

    action: str
    group: str | None = None
    #: merge destination (``merge_groups`` only)
    target: str | None = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown scale action {self.action!r}")

    def to_dict(self) -> dict:
        out = {"action": self.action, "reason": self.reason}
        if self.group is not None:
            out["group"] = self.group
        if self.target is not None:
            out["target"] = self.target
        return out


def _hold(reason: str) -> ScaleDecision:
    return ScaleDecision(ACTION_HOLD, reason=reason)


@dataclass(frozen=True)
class ScalerPolicy:
    """Threshold configuration for the decision ladder."""

    #: queue occupancy fraction that counts as hot even without an alert
    hot_queue_fraction: float = 0.8
    #: a hot group holding this fraction of all blocks splits instead of
    #: growing (tier-1 skew beats tier-2 growth)
    split_load_fraction: float = 0.6
    #: never split groups smaller than this (blocks)
    split_min_blocks: int = 64
    #: tier-2 growth ceiling per group
    max_group_size: int = 8
    #: tier-1 growth ceiling (total groups)
    max_groups: int = 16
    #: a surplus group below this fraction of all blocks merges away
    merge_load_fraction: float = 0.05
    #: calm ticks required before any scale-in
    idle_ticks_before_scale_in: int = 4
    #: ticks to wait after an executed action before acting again
    cooldown_ticks: int = 2
    #: master switch for merge/remove (scale-out is always allowed)
    enable_scale_in: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_queue_fraction <= 1.0:
            raise ValueError("hot_queue_fraction must be in (0, 1]")
        if not 0.0 < self.split_load_fraction <= 1.0:
            raise ValueError("split_load_fraction must be in (0, 1]")
        if not 0.0 <= self.merge_load_fraction < 1.0:
            raise ValueError("merge_load_fraction must be in [0, 1)")
        if self.max_group_size < 1 or self.max_groups < 1:
            raise ValueError("max_group_size and max_groups must be >= 1")
        if self.cooldown_ticks < 0 or self.idle_ticks_before_scale_in < 0:
            raise ValueError("tick counts must be >= 0")

    # -- signal classification ------------------------------------------------

    def is_hot(self, signals: ScaleSignals) -> bool:
        """Whether the cluster needs more capacity right now."""
        if signals.firing:
            return True
        if signals.queue_capacity:
            occupancy = signals.queue_depth / signals.queue_capacity
            if occupancy >= self.hot_queue_fraction:
                return True
        return False

    # -- the decision ladder --------------------------------------------------

    def decide(self, signals: ScaleSignals) -> ScaleDecision:
        if not signals.group_blocks:
            return _hold("no groups")
        if self.is_hot(signals):
            return self._scale_out(signals)
        return self._scale_in(signals)

    def _scale_out(self, signals: ScaleSignals) -> ScaleDecision:
        cause = ",".join(signals.firing) or "queue"
        healthy = sorted(
            g for g in signals.group_blocks if g not in signals.unhealthy_groups
        )
        if not healthy:
            return _hold(f"hot ({cause}) but every group is unhealthy")
        # Hottest group: highest per-node primary load; ties by block count
        # then id, so equal frames always pick the same group.
        hottest = max(
            healthy,
            key=lambda g: (
                signals.group_blocks[g] / max(1, signals.group_sizes[g]),
                signals.group_blocks[g],
                g,
            ),
        )
        blocks = signals.group_blocks[hottest]
        total = max(1, signals.total_blocks)
        can_split = (
            blocks >= self.split_min_blocks
            and len(signals.group_blocks) < self.max_groups
        )
        heavily_skewed = blocks >= self.split_load_fraction * total
        if heavily_skewed and can_split:
            return ScaleDecision(
                ACTION_SPLIT_GROUP,
                group=hottest,
                reason=(
                    f"{cause}: {hottest} holds {blocks}/{total} blocks "
                    f"(>= {self.split_load_fraction:.0%}), splitting tier-1"
                ),
            )
        if signals.group_sizes[hottest] < self.max_group_size:
            return ScaleDecision(
                ACTION_ADD_NODE,
                group=hottest,
                reason=(
                    f"{cause}: growing {hottest} "
                    f"({signals.group_sizes[hottest]} nodes, {blocks} blocks)"
                ),
            )
        if can_split:
            return ScaleDecision(
                ACTION_SPLIT_GROUP,
                group=hottest,
                reason=f"{cause}: {hottest} at max size, splitting tier-1",
            )
        return _hold(f"hot ({cause}) but at max_group_size and max_groups")

    def _scale_in(self, signals: ScaleSignals) -> ScaleDecision:
        if not self.enable_scale_in:
            return _hold("calm (scale-in disabled)")
        if signals.idle_ticks < self.idle_ticks_before_scale_in:
            return _hold(
                f"calm ({signals.idle_ticks}/"
                f"{self.idle_ticks_before_scale_in} idle ticks)"
            )
        healthy = sorted(
            g for g in signals.group_blocks if g not in signals.unhealthy_groups
        )
        total = max(1, signals.total_blocks)
        # Merge a near-empty surplus group (only beyond the deployment's
        # configured group count — the seed topology is never merged away).
        if (
            len(signals.group_blocks) > signals.baseline_group_count
            and len(healthy) >= 2
        ):
            coldest = min(
                healthy,
                key=lambda g: (signals.group_blocks[g], g),
            )
            if signals.group_blocks[coldest] <= self.merge_load_fraction * total:
                others = [g for g in healthy if g != coldest]
                target = min(
                    others, key=lambda g: (signals.group_blocks[g], g)
                )
                return ScaleDecision(
                    ACTION_MERGE_GROUPS,
                    group=coldest,
                    target=target,
                    reason=(
                        f"idle: {coldest} holds {signals.group_blocks[coldest]}"
                        f"/{total} blocks, merging into {target}"
                    ),
                )
        # Drain one node from the most over-provisioned group; floors:
        # the configured group size and the replication factor.
        floor = max(signals.baseline_group_size, signals.replication, 1)
        shrinkable = [g for g in healthy if signals.group_sizes[g] > floor]
        if shrinkable:
            group = min(
                shrinkable,
                key=lambda g: (
                    signals.group_blocks[g] / max(1, signals.group_sizes[g]),
                    g,
                ),
            )
            return ScaleDecision(
                ACTION_REMOVE_NODE,
                group=group,
                reason=(
                    f"idle: draining one of {signals.group_sizes[group]} "
                    f"nodes from {group} (floor {floor})"
                ),
            )
        return _hold("calm (topology at baseline)")
