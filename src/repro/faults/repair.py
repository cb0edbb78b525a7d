"""Re-replication and placement reconciliation.

The invariant this module maintains: **every block placed on a group (the
index's placement record, ``MendelIndex.blocks_of_group``) is held by its
first ``replication`` alive nodes in preference order** (the
group's Dynamo-style preference list, skipping nodes the failure detector
considers dead).  One sync primitive serves both directions:

* **a node dies** — its blocks gain new desired holders among the alive
  successors; :class:`ReReplicator` streams each block from a surviving
  replica to the new holder (there is no other copy to read — crash-stop
  keeps the dead node's disk intact but unreachable);
* **a node rejoins** — desired placement reverts toward canonical; the
  temporary extra copies on successors are dropped and any blocks the
  rejoining node should hold but doesn't (or holds stale) are streamed to
  it, so blocks never stay over- *or* under-replicated.

Placed blocks that no alive node holds are *lost*: every holder is dead
(unreachable, not destroyed — they come back when a holder rejoins), or no
copy is left at all (a replica-1 snapshot or block file that failed its
checks on replay).  They are counted, never streamed.

Time accounting: the simulated variant (:meth:`ReReplicator.repair_proc`)
charges per-destination network transfer of the real block bytes plus the
destination's vp-tree insert time, with destinations streaming in parallel
— so repair traffic and repair makespan land on the same clock queries run
on.  The immediate variant (:meth:`ReReplicator.sync_group`) applies the
same plan atomically for callers outside a simulation
(:meth:`repro.core.index.MendelIndex.recover_node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.group import StorageGroup
from repro.cluster.node import StorageNode
from repro.sim.engine import AllOf, Simulation
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import MendelIndex


@dataclass
class BlockMove:
    """One planned block stream ``src -> dst``."""

    block_id: int
    src: str
    dst: str


@dataclass
class RepairPlan:
    """The diff between current and desired placement for one group."""

    group_id: str
    moves: list[BlockMove] = field(default_factory=list)
    drops: list[tuple[int, str]] = field(default_factory=list)
    lost: list[int] = field(default_factory=list)

    @property
    def dirty(self) -> bool:
        return bool(self.moves or self.drops)


@dataclass
class RepairReport:
    """What one sync did (summed over groups for multi-group calls)."""

    blocks_streamed: int = 0
    bytes_streamed: int = 0
    blocks_dropped: int = 0
    blocks_lost: int = 0
    nodes_rebuilt: int = 0
    simulated_seconds: float = 0.0

    def merge(self, other: "RepairReport") -> "RepairReport":
        return RepairReport(
            blocks_streamed=self.blocks_streamed + other.blocks_streamed,
            bytes_streamed=self.bytes_streamed + other.bytes_streamed,
            blocks_dropped=self.blocks_dropped + other.blocks_dropped,
            blocks_lost=self.blocks_lost + other.blocks_lost,
            nodes_rebuilt=self.nodes_rebuilt + other.nodes_rebuilt,
            simulated_seconds=max(self.simulated_seconds, other.simulated_seconds),
        )


class ReReplicator:
    """Plans and applies placement syncs for one deployment.

    Parameters
    ----------
    index:
        The deployment whose placement is maintained.
    is_alive:
        Liveness predicate used for desired placement; defaults to ground
        truth (``node.alive``).  The chaos controller passes the failure
        detector's view so repair reacts to *detected* failures.
    """

    def __init__(
        self,
        index: "MendelIndex",
        is_alive: Callable[[StorageNode], bool] | None = None,
    ) -> None:
        self.index = index
        self.is_alive = is_alive or (lambda node: node.alive)

    # -- planning --------------------------------------------------------------

    def desired_placement(self, group: StorageGroup) -> dict[str, set[int]]:
        """Desired per-node block sets: each block placed on *group* on its
        first ``replication`` alive preference-list nodes."""
        replication = self.index.config.replication
        desired: dict[str, set[int]] = {node.node_id: set() for node in group.nodes}
        for block_id in self.index.blocks_of_group[group.group_id]:
            key = self.index.store.block_key(block_id)
            holders = group.place_replicas_alive(key, replication, self.is_alive)
            if not holders:
                # Whole group down (from the detector's view): leave each
                # node's holdings untouched; nothing can move anyway.
                for node in group.nodes:
                    if block_id in node.known_block_ids:
                        desired[node.node_id].add(block_id)
                continue
            for node in holders:
                desired[node.node_id].add(block_id)
        return desired

    def plan(self, group: StorageGroup) -> RepairPlan:
        """Diff desired against current placement.

        Blocks with no alive current holder cannot be streamed: they are
        reported lost and their desired copies are skipped (current copies
        on dead nodes are kept for the eventual rejoin).  A copy of a block
        placed on another group is a split's retained copy, which the split
        drops when it settles.
        """
        placed = self.index.blocks_of_group[group.group_id]
        desired = self.desired_placement(group)
        current = {
            node.node_id: set(node.known_block_ids) for node in group.nodes
        }
        alive_holders: dict[int, list[str]] = {}
        for node in group.nodes:
            if self.is_alive(node) and node.alive:
                for block_id in node.block_ids:
                    alive_holders.setdefault(block_id, []).append(node.node_id)

        plan = RepairPlan(group_id=group.group_id)
        lost: set[int] = set()
        for node in group.nodes:
            node_id = node.node_id
            for block_id in sorted(desired[node_id] - current[node_id]):
                sources = alive_holders.get(block_id)
                if not sources:
                    lost.add(block_id)
                    continue
                plan.moves.append(
                    BlockMove(block_id=block_id, src=sources[0], dst=node_id)
                )
            if not self.is_alive(node) or not node.alive:
                continue  # cannot reconcile a node we cannot contact
            for block_id in sorted((current[node_id] & placed) - desired[node_id]):
                plan.drops.append((block_id, node_id))
        plan.lost = sorted(lost)
        return plan

    # -- application -----------------------------------------------------------

    def sync_group(self, group: StorageGroup) -> RepairReport:
        """Plan and apply one group's sync immediately (no simulated time);
        the report carries an offline makespan estimate (transfer only)."""
        plan = self.plan(group)
        report = RepairReport(blocks_lost=len(plan.lost))
        per_dst: dict[str, list[int]] = {}
        for move in plan.moves:
            per_dst.setdefault(move.dst, []).append(move.block_id)
            report.bytes_streamed += self._wire_bytes(move.block_id)
        for dst_id in sorted(per_dst):
            block_ids = per_dst[dst_id]
            group.node(dst_id).store_blocks(
                self.index.store.codes_matrix(block_ids), block_ids
            )
            report.blocks_streamed += len(block_ids)
        if plan.moves:
            # 100 MB/s plus a 200 us set-up per block.
            report.simulated_seconds = (
                report.bytes_streamed / 1e8 + 200e-6 * len(plan.moves)
            )
        self._apply_drops(group, plan, report)
        self.index.refresh_primaries(group, self.is_alive)
        return report

    def sync_all(self) -> RepairReport:
        """Sync every group; returns the merged report."""
        report = RepairReport()
        for group in self.index.topology.groups:
            report = report.merge(self.sync_group(group))
        return report

    def repair_proc(self, group: StorageGroup, sim: Simulation, net: Network):
        """Generator process: the simulated-time variant of
        :meth:`sync_group`.  Destinations stream in parallel; each charges
        its network transfer then its vp-tree insert time."""
        plan = self.plan(group)
        if not plan.dirty:
            return RepairReport(blocks_lost=len(plan.lost))
        started = sim.now
        per_dst: dict[str, list[BlockMove]] = {}
        for move in plan.moves:
            per_dst.setdefault(move.dst, []).append(move)

        report = RepairReport(blocks_lost=len(plan.lost))

        def stream_to(dst_id: str, moves: list[BlockMove]):
            node = group.node(dst_id)
            transfer = 0.0
            for move in moves:
                size = self._wire_bytes(move.block_id)
                transfer += net.transfer(move.src, move.dst, size)
                report.bytes_streamed += size
            yield transfer
            block_ids = [move.block_id for move in moves]
            evals = node.store_blocks(
                self.index.store.codes_matrix(block_ids), block_ids
            )
            report.blocks_streamed += len(block_ids)
            yield node.service_time(evals)

        streams = [
            sim.spawn(stream_to(dst_id, moves), name=f"repair:{dst_id}")
            for dst_id, moves in sorted(per_dst.items())
        ]
        if streams:
            yield AllOf(streams)
        self._apply_drops(group, plan, report)
        self.index.refresh_primaries(group, self.is_alive)
        report.simulated_seconds = sim.now - started
        return report

    def _apply_drops(
        self, group: StorageGroup, plan: RepairPlan, report: RepairReport
    ) -> None:
        """Remove over-replicated copies by rebuilding the affected nodes
        without them (not charged: it stands in for background compaction)."""
        per_node: dict[str, set[int]] = {}
        for block_id, node_id in plan.drops:
            per_node.setdefault(node_id, set()).add(block_id)
        for node_id in sorted(per_node):
            group.node(node_id).drop_blocks(
                per_node[node_id], self.index.store.codes_matrix
            )
            report.blocks_dropped += len(per_node[node_id])
            report.nodes_rebuilt += 1

    def _wire_bytes(self, block_id: int) -> int:
        """Bytes one streamed block puts on the wire: its codes plus a
        72-byte frame."""
        return int(self.index.store.codes_of(block_id).nbytes) + 72
