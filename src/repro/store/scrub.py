"""Anti-entropy integrity scrubbing: find bit rot before queries do.

The scrubber walks storage groups on a background cadence and, for every
block a group holds, compares the **content digests** of its replica copies
(recorded at write-acknowledgement time and kept by each node's durable
medium, ``node.durable`` — the snapshot + WAL, or a spilled node's block
file):

* a replica whose stored payload no longer matches its own digest fails
  *self-verification* — classic silent bit rot;
* replicas that self-verify but disagree with the digest majority are
  flagged as *divergent* (metadata rot); the strict minority is treated as
  corrupt, an exact tie is reported but never auto-healed (there is no
  verified majority to heal **from**).

Every confirmed-corrupt copy is **quarantined** — dropped from the holding
node's RAM index and durable manifest — which makes the existing
:class:`~repro.faults.repair.ReReplicator` plan a stream of that block from
a verified replica on the next repair round: healing deliberately reuses
the one battle-tested replication path instead of growing a second one.

Observability: every replica check feeds the ``integrity`` SLI (so the
``integrity`` SLO burns and pages on corruption), each finding emits a
``corruption_detected`` event and each completed heal a ``scrub_heal``
event into the shared log, closing the corrupt → detect → repair → resolve
chain for alert cause-correlation.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.obs.events import EventLog
from repro.obs.metrics import default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cluster cycle)
    from repro.cluster.group import StorageGroup
    from repro.cluster.node import StorageNode


@dataclass(frozen=True)
class ScrubFinding:
    """One corrupt (or divergent) replica copy found by a scrub pass."""

    group_id: str
    node_id: str
    block_id: int
    reason: str  # "digest_mismatch" | "divergent_minority" | "divergent_tie"
    healable: bool = True

    def to_dict(self) -> dict:
        return {
            "group": self.group_id,
            "node": self.node_id,
            "block": self.block_id,
            "reason": self.reason,
            "healable": self.healable,
        }


@dataclass
class ScrubReport:
    """Accumulated scrub outcomes (one pass or a whole run)."""

    passes: int = 0
    groups_scrubbed: int = 0
    blocks_checked: int = 0
    replicas_checked: int = 0
    mismatches: int = 0
    quarantined: int = 0
    heals_requested: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "groups_scrubbed": self.groups_scrubbed,
            "blocks_checked": self.blocks_checked,
            "replicas_checked": self.replicas_checked,
            "mismatches": self.mismatches,
            "quarantined": self.quarantined,
            "heals_requested": self.heals_requested,
            "findings": [f.to_dict() for f in self.findings],
        }


class IntegrityScrubber:
    """Digest-compares replicas group by group; quarantines what rotted.

    Parameters
    ----------
    index:
        The deployment to scrub.
    is_alive:
        Liveness view for replica selection; defaults to ground truth.
        The chaos controller passes the failure detector's view so an
        unreachable node is never misread as corrupt.
    event_log / recorder / registry:
        Observability sinks: ``corruption_detected`` / ``scrub_heal``
        events, the ``integrity`` SLI, and scrub counters.
    heal:
        Called with ``(group, findings)`` after quarantining to schedule
        re-replication.  The chaos controller chains it onto the group's
        repair tail; wall-clock callers pass an immediate sync.  ``None``
        detects without healing (audit mode).
    """

    def __init__(
        self,
        index,
        is_alive: Callable[[StorageNode], bool] | None = None,
        event_log: EventLog | None = None,
        recorder=None,
        registry=None,
        heal: Callable[[StorageGroup, list[ScrubFinding]], None] | None = None,
    ) -> None:
        self.index = index
        self.is_alive = is_alive or (lambda node: node.alive)
        self.events = event_log
        self.recorder = recorder
        self.heal = heal
        self.report = ScrubReport()
        self._cursor = 0
        registry = registry if registry is not None else default_registry()
        self._m_passes = registry.counter(
            "repro_scrub_passes_total", "Scrub passes completed over groups"
        )
        self._m_checked = registry.counter(
            "repro_scrub_replicas_checked_total",
            "Replica copies digest-verified by the scrubber",
            ("group",),
        )
        self._m_corrupt = registry.counter(
            "repro_scrub_corruptions_total",
            "Corrupt replica copies detected by digest comparison",
            ("group",),
        )
        self._m_heals = registry.counter(
            "repro_scrub_heals_total",
            "Scrub-initiated re-replication heals requested",
            ("group",),
        )

    # -- one pass --------------------------------------------------------------

    def scrub_group(self, group: StorageGroup,
                    now: float | None = None) -> list[ScrubFinding]:
        """Digest-verify every replica copy the group's alive members hold;
        quarantine confirmed-corrupt copies and request their heal."""
        alive = [n for n in group.nodes if n.alive and self.is_alive(n)]
        block_holders: dict[int, list[StorageNode]] = {}
        verified: dict[tuple[str, int], bool] = {}
        for node in alive:
            manifest = node.durable.manifest_ids()
            for block_id, ok in zip(manifest, node.durable.verify_many(manifest)):
                block_holders.setdefault(block_id, []).append(node)
                verified[node.node_id, block_id] = ok is not False

        findings: list[ScrubFinding] = []
        checked = 0
        for block_id in sorted(block_holders):
            holders = block_holders[block_id]
            self.report.blocks_checked += 1
            self_ok: dict[str, bool] = {}
            digests: dict[str, int | None] = {}
            for node in holders:
                checked += 1
                self_ok[node.node_id] = verified[node.node_id, block_id]
                digests[node.node_id] = node.durable.digest(block_id)
            for node in holders:
                if not self_ok[node.node_id]:
                    findings.append(ScrubFinding(
                        group_id=group.group_id, node_id=node.node_id,
                        block_id=block_id, reason="digest_mismatch",
                    ))
            # Cross-replica comparison among self-consistent copies: a copy
            # whose digest lost the vote carries rotted *metadata*.
            votes = TallyCounter(
                digests[n.node_id] for n in holders if self_ok[n.node_id]
            )
            if len(votes) > 1:
                top = votes.most_common()
                majority, majority_count = top[0]
                tie = majority_count == top[1][1]
                for node in holders:
                    if not self_ok[node.node_id]:
                        continue
                    if digests[node.node_id] != majority or tie:
                        findings.append(ScrubFinding(
                            group_id=group.group_id, node_id=node.node_id,
                            block_id=block_id,
                            reason="divergent_tie" if tie
                            else "divergent_minority",
                            healable=not tie,
                        ))

        self.report.groups_scrubbed += 1
        self.report.replicas_checked += checked
        self._m_checked.labels(group=group.group_id).inc(checked)
        good_checks = checked - len(findings)
        if self.recorder is not None and now is not None and checked:
            for _ in range(good_checks):
                self.recorder.observe("integrity", now, 1.0, good=True)
            for _ in range(len(findings)):
                self.recorder.observe("integrity", now, 0.0, good=False)

        if findings:
            self.report.mismatches += len(findings)
            self.report.findings.extend(findings)
            self._m_corrupt.labels(group=group.group_id).inc(len(findings))
            self._quarantine(group, findings, now)
        return findings

    def scrub_all(self, now: float | None = None) -> list[ScrubFinding]:
        """One full pass over every group (the wall-clock SCRUB verb)."""
        findings: list[ScrubFinding] = []
        for group in self.index.topology.groups:
            findings.extend(self.scrub_group(group, now=now))
        self.report.passes += 1
        self._m_passes.inc()
        return findings

    # -- cadenced scrubbing ----------------------------------------------------

    def scrub_proc(self, sim, interval: float, stop_at: float):
        """Generator process: scrub one group per *interval*, round-robin,
        terminating before *stop_at* so the simulation heap drains."""
        while sim.now + interval <= stop_at:
            yield interval
            groups = self.index.topology.groups
            if not groups:
                continue
            group = groups[self._cursor % len(groups)]
            self._cursor += 1
            self.scrub_group(group, now=sim.now)
            if self._cursor % max(1, len(groups)) == 0:
                self.report.passes += 1
                self._m_passes.inc()

    # -- quarantine + heal -----------------------------------------------------

    def _quarantine(self, group: StorageGroup, findings: list[ScrubFinding],
                    now: float | None) -> None:
        per_node: dict[str, set[int]] = {}
        for finding in findings:
            if self.events is not None:
                self.events.emit(
                    "corruption_detected", finding.node_id,
                    f"block {finding.block_id} on {finding.node_id}: "
                    f"{finding.reason}",
                    sim_time=now,
                    group=finding.group_id, block=finding.block_id,
                    reason=finding.reason,
                )
            if finding.healable:
                per_node.setdefault(finding.node_id, set()).add(
                    finding.block_id
                )
        for node_id in sorted(per_node):
            corrupt = per_node[node_id]
            # Rebuild without the rotted copies: RAM and the durable
            # manifest both forget them, so the next repair plan streams
            # the block back from a replica that still verifies.
            group.node(node_id).drop_blocks(
                corrupt, self.index.store.codes_matrix
            )
            self.report.quarantined += len(corrupt)
        if per_node and self.heal is not None:
            self.report.heals_requested += 1
            self._m_heals.labels(group=group.group_id).inc()
            healable = [f for f in findings if f.healable]
            self.heal(group, healable)
