"""Scripted fault schedules: deterministic, replayable chaos.

A :class:`FaultSchedule` is a list of :class:`FaultEvent` entries scripted
against *simulated* time, plus the knobs that shape failure handling
(heartbeat cadence, detection threshold, auto-repair, RNG seed).  The same
schedule attached to two identical runs produces byte-identical behaviour —
every random draw (link drops) comes from the schedule's seed, and every
event fires at a scripted simulated instant.

Event kinds:

``crash``
    Crash-stop a node (process dies; on-disk data survives).
``restart``
    Bring a crashed node back (data intact but possibly stale; the chaos
    controller reconciles placement on rejoin).
``slowdown``
    Straggler injection: scale a node's speed by ``factor`` (< 1 is
    slower), optionally auto-restoring after ``duration`` seconds.
``restore_speed``
    End a slowdown explicitly.
``drop_link`` / ``heal_link``
    Make one link lossy/slow (``drop`` probability, ``extra_delay``), or
    clear it.
``partition`` / ``heal_partition``
    Split the cluster into disjoint sides / reconnect everything.
``bit_flip``
    Silent bit rot: flip one bit of a node's durable copy of ``block``
    (no error is raised — only digest verification can catch it).
``torn_write``
    Arm a one-shot torn append on a node's device: the next WAL record
    persists only a prefix (replay truncates it away).
``disk_full`` / ``disk_free``
    Set / clear a node's device ENOSPC flag: durable appends fail cleanly
    and the node serves from RAM with degraded durability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.util.validation import check_fraction, check_non_negative, check_positive

_KINDS = frozenset(
    {
        "crash",
        "restart",
        "slowdown",
        "restore_speed",
        "drop_link",
        "heal_link",
        "partition",
        "heal_partition",
        "bit_flip",
        "torn_write",
        "disk_full",
        "disk_free",
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted event at simulated time ``at``.

    Use the class-method constructors (:meth:`crash`, :meth:`restart`, …)
    rather than filling fields by hand; they validate per kind.
    """

    at: float
    kind: str
    node: str | None = None
    src: str | None = None
    dst: str | None = None
    factor: float = 1.0
    duration: float | None = None
    drop: float = 0.0
    extra_delay: float = 0.0
    sides: tuple[frozenset, ...] = ()
    #: corruption targeting (``bit_flip``): which durable block, which bit
    block: int | None = None
    bit: int = 0

    def __post_init__(self) -> None:
        check_non_negative("at", self.at)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in (
            "crash", "restart", "slowdown", "restore_speed",
            "bit_flip", "torn_write", "disk_full", "disk_free",
        ):
            if not self.node:
                raise ValueError(f"{self.kind} event needs a node id")
        if self.kind == "bit_flip" and self.block is None:
            raise ValueError("bit_flip event needs a block id")
        if self.kind in ("drop_link", "heal_link"):
            if not self.src or not self.dst:
                raise ValueError(f"{self.kind} event needs src and dst node ids")
        if self.kind == "slowdown":
            check_positive("factor", self.factor)
            if self.duration is not None:
                check_positive("duration", self.duration)
        if self.kind == "drop_link":
            check_fraction("drop", self.drop)
            check_non_negative("extra_delay", self.extra_delay)
        if self.kind == "partition" and not self.sides:
            raise ValueError("partition event needs at least one side")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def crash(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="crash", node=node)

    @classmethod
    def restart(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="restart", node=node)

    @classmethod
    def slowdown(
        cls, at: float, node: str, factor: float, duration: float | None = None
    ) -> "FaultEvent":
        return cls(at=at, kind="slowdown", node=node, factor=factor, duration=duration)

    @classmethod
    def restore_speed(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="restore_speed", node=node)

    @classmethod
    def drop_link(
        cls,
        at: float,
        src: str,
        dst: str,
        drop: float = 1.0,
        extra_delay: float = 0.0,
    ) -> "FaultEvent":
        return cls(
            at=at, kind="drop_link", src=src, dst=dst, drop=drop,
            extra_delay=extra_delay,
        )

    @classmethod
    def heal_link(cls, at: float, src: str, dst: str) -> "FaultEvent":
        return cls(at=at, kind="heal_link", src=src, dst=dst)

    @classmethod
    def partition(cls, at: float, *sides: Iterable[str]) -> "FaultEvent":
        return cls(
            at=at, kind="partition",
            sides=tuple(frozenset(side) for side in sides),
        )

    @classmethod
    def heal_partition(cls, at: float) -> "FaultEvent":
        return cls(at=at, kind="heal_partition")

    @classmethod
    def bit_flip(
        cls, at: float, node: str, block: int, bit: int = 0
    ) -> "FaultEvent":
        return cls(at=at, kind="bit_flip", node=node, block=block, bit=bit)

    @classmethod
    def torn_write(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="torn_write", node=node)

    @classmethod
    def disk_full(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="disk_full", node=node)

    @classmethod
    def disk_free(cls, at: float, node: str) -> "FaultEvent":
        return cls(at=at, kind="disk_free", node=node)


@dataclass(frozen=True)
class FaultSchedule:
    """A scripted chaos scenario plus failure-handling configuration.

    Parameters
    ----------
    events:
        The scripted fault events (any order; applied in time order, ties
        breaking on listing order).
    seed:
        RNG seed for every stochastic draw of the run (link drops).
    heartbeat_interval:
        Simulated seconds between heartbeat rounds from each group's
        monitor; 0 disables detection (and therefore auto-repair).
    miss_threshold:
        Consecutive missed heartbeats before a suspected node is declared
        dead (the first miss marks it suspected).
    auto_repair:
        Re-replicate a dead node's blocks from surviving replicas once the
        detector declares it dead.
    scrub_interval:
        Simulated seconds between anti-entropy scrub rounds (one group per
        round, round-robin); 0 disables background scrubbing.  Each round
        chains the blocks it quarantines into the repair path.
    horizon:
        Simulated time at which heartbeat monitoring stops (the simulation
        cannot drain while monitors loop).  Defaults to the last scripted
        event plus enough rounds to detect and repair it.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    heartbeat_interval: float = 0.002
    miss_threshold: int = 3
    auto_repair: bool = True
    scrub_interval: float = 0.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        check_non_negative("heartbeat_interval", self.heartbeat_interval)
        check_non_negative("scrub_interval", self.scrub_interval)
        if self.miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {self.miss_threshold}"
            )
        if self.horizon is not None:
            check_positive("horizon", self.horizon)

    def ordered(self) -> list[FaultEvent]:
        """Events in application order (stable for equal times)."""
        return sorted(self.events, key=lambda e: e.at)

    @property
    def last_event_at(self) -> float:
        return max((event.at for event in self.events), default=0.0)

    @property
    def effective_horizon(self) -> float:
        """When monitoring stops: explicit horizon, or late enough to detect
        (and start repairing) the last scripted event."""
        if self.horizon is not None:
            return self.horizon
        settle = self.heartbeat_interval * (self.miss_threshold + 3)
        return self.last_event_at + settle


def kill_and_recover(
    node_ids: Sequence[str],
    kill_at: float,
    recover_at: float | None = None,
    **knobs,
) -> FaultSchedule:
    """The canonical scenario: crash *node_ids* at ``kill_at`` and (if
    ``recover_at`` is given) restart them all at ``recover_at``."""
    check_non_negative("kill_at", kill_at)
    events = [FaultEvent.crash(kill_at, node_id) for node_id in node_ids]
    if recover_at is not None:
        if recover_at <= kill_at:
            raise ValueError(
                f"recover_at ({recover_at}) must be after kill_at ({kill_at})"
            )
        events.extend(FaultEvent.restart(recover_at, node_id) for node_id in node_ids)
    return FaultSchedule(events=tuple(events), **knobs)
