"""Index construction: the three-step pipeline of section V-A.

1. **Inverted-index block creation** — :class:`~repro.core.blocks.BlockStore`
   slides a stride-1 window over every reference sequence.
2. **Vp-prefix tree sequence dispersion** — a shared
   :class:`~repro.vptree.prefix.VPPrefixTree` (built over a sample of the
   blocks) hashes each block to a storage group; flat SHA-1 picks the node
   within the group.
3. **Local vp-tree indexing** — each node batch-inserts its blocks into its
   dynamic vp-tree.

The index also records a simulated *indexing makespan*: per-node insertion
work proceeds in parallel across the cluster (the paper's batch submission),
so the makespan is the slowest node's service time plus dispersal costs.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.cluster.group import StorageGroup
from repro.cluster.node import StorageNode
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.core.blocks import BlockStore
from repro.core.directory import PartDirectory
from repro.core.params import MendelConfig
from repro.obs.metrics import default_registry
from repro.seq.distance import default_distance
from repro.seq.records import SequenceSet
from repro.util.rng import as_generator
from repro.vptree.prefix import VPPrefixTree


@dataclass
class IndexStats:
    """Bookkeeping from index construction.  What each node holds is read
    from the nodes of *topology* (:attr:`per_node_blocks`), never kept a
    second time."""

    topology: InitVar[ClusterTopology]
    block_count: int = 0
    hash_evals: int = 0
    insert_evals: int = 0
    simulated_makespan: float = 0.0

    def __post_init__(self, topology: ClusterTopology) -> None:
        self._topology = topology

    @property
    def per_node_blocks(self) -> dict[str, int]:
        """Blocks each node of the current topology holds, in node order."""
        return {node.node_id: node.block_count for node in self._topology.nodes}


@dataclass
class TopologyChange:
    """Handle for an online split/merge of storage groups.

    The routing-table update and the block copies onto the destination are
    applied atomically (between simulation events), but the *source* group
    keeps its copies of the moved blocks until :meth:`settle` — a
    dual-ownership window during which queries routed before the change
    still find every block where they expect it, so in-flight answers stay
    complete.  The autoscaler settles a change on its next tick; offline
    callers settle immediately (the default).
    """

    kind: str  # "node_added" | "group_split" | "group_merged"
    source: str
    target: str
    moved_blocks: int
    #: the (left, right) child prefixes when a single-prefix group was
    #: sharpened one level deeper in the vp-prefix tree, else ``None``
    refined: tuple[int, int] | None = None
    settled: bool = False
    _settle_fn: Callable[[], None] | None = field(default=None, repr=False)

    def settle(self) -> None:
        """Drop the source group's retained copies (idempotent)."""
        if self.settled:
            return
        self.settled = True
        if self._settle_fn is not None:
            self._settle_fn()


class MendelIndex:
    """A fully built Mendel deployment: block store + cluster + prefix LSH.

    Parameters
    ----------
    database:
        The reference :class:`~repro.seq.records.SequenceSet`.
    config:
        Deployment shape (:class:`~repro.core.params.MendelConfig`).
    placement:
        A saved deployment's ``(node ids, primaries)`` — its node list and,
        for every block, the position of the block's primary in that list
        (the persistence path, :func:`~repro.core.persist.load_index`).
        The node list must equal the rebuilt topology's; each block then
        goes to the group of its primary instead of being hashed.
    """

    def __init__(
        self,
        database: SequenceSet,
        config: MendelConfig,
        placement: tuple[Sequence[str], Sequence[int]] | None = None,
    ) -> None:
        if len(database) == 0:
            raise ValueError("cannot index an empty database")
        self.database = database
        self.config = config
        self.alphabet = database.alphabet
        #: Mutation counter: bumped by every insert, topology, tier, failure
        #: or scrub change, so cache layers (:mod:`repro.serve`) can detect
        #: that previously computed results may be stale.
        self.version = 0
        #: tiered-storage state: a runtime policy, never persisted
        self.tier_cache = None
        self.tier_config = None
        gen = as_generator(config.seed)

        # Step 1: inverted-index block creation.
        self.store = BlockStore(database, config.segment_length)
        if len(self.store) < 2:
            raise ValueError(
                "database produced fewer than 2 index blocks; sequences must "
                f"be at least segment_length={config.segment_length} long"
            )
        if placement is not None and len(placement[1]) != len(self.store):
            raise ValueError(
                f"placement length {len(placement[1])} does not match block "
                f"count {len(self.store)}; archive does not belong to this "
                "database"
            )

        # Shared tier-1 LSH built over a block sample.
        sample_size = min(config.sample_size, len(self.store))
        sample_ids = gen.choice(len(self.store), size=sample_size, replace=False)
        sample = self.store.codes_matrix(sample_ids)
        # Not a closure over ``self``: that cycle would keep a dropped index,
        # its store and every node's tree alive until a full collection.
        self._metric_factory = partial(default_distance, self.alphabet)
        self.prefix_tree = VPPrefixTree(
            sample,
            self._metric_factory(),
            depth_threshold=config.prefix_depth,
            bucket_capacity=config.prefix_bucket_capacity,
            rng=int(gen.integers(0, 2**31 - 1)),
        )

        # Cluster shell.
        spec = ClusterSpec(
            group_count=config.group_count,
            group_size=config.group_size,
            heterogeneous=config.heterogeneous,
            bucket_capacity=config.bucket_capacity,
        )
        self.topology = ClusterTopology(
            spec=spec,
            prefix_tree=self.prefix_tree,
            sample=sample,
            metric_factory=self._metric_factory,
            segment_length=config.segment_length,
            rng=int(gen.integers(0, 2**31 - 1)),
        )
        self.stats = IndexStats(self.topology, block_count=len(self.store))

        # Steps 2+3: dispersion and local indexing (batched per node).
        # The placement record: each block's primary, and the blocks placed
        # on each group.  ``_place`` is its one writer; what a group's nodes
        # happen to hold is theirs, not the record.  A group's set is
        # replaced, never changed in place, so a reader may keep one as a
        # snapshot (a query's coverage scope) without copying it.
        self.node_of_block: dict[int, str] = {}
        self.blocks_of_group: dict[str, frozenset[int]] = {}
        #: tier-1 routing by part keys, derived from the record
        self.part_directory = PartDirectory(self.store, self.blocks_of_group)
        self._disperse(placement)

    # -- construction internals ------------------------------------------------

    def _disperse(
        self, placement: tuple[Sequence[str], Sequence[int]] | None
    ) -> None:
        """Send every block to its group — by the vp-prefix hash, or by the
        group of its saved primary — and place each group's share."""
        if placement is not None:
            saved_nodes, primaries = placement
            nodes = self.topology.nodes
            # A node list the config does not rebuild (the index was saved
            # after a topology change) or a primary outside it is another
            # cluster.
            if list(saved_nodes) != [node.node_id for node in nodes] or any(
                not 0 <= number < len(nodes) for number in primaries
            ):
                raise ValueError(
                    "saved cluster shape does not match rebuilt topology"
                )
            group_of = [nodes[number].group_id for number in primaries]
        else:
            prefixes, depths = self.prefix_tree.hash_many(
                self.store.codes_matrix(range(len(self.store)))
            )
            # One evaluation per level each block's single-path walk descended.
            self.stats.hash_evals += int(depths.sum())
            group_of = [
                self.topology.group_for_prefix(prefix).group_id
                for prefix in prefixes.tolist()
            ]
        per_group: dict[str, list[int]] = {
            group.group_id: [] for group in self.topology.groups
        }
        for block_id, group_id in enumerate(group_of):
            per_group[group_id].append(block_id)

        makespan = 0.0
        for group in self.topology.groups:
            for node, _, evals in self._place(group, per_group[group.group_id]):
                self.stats.insert_evals += evals
                makespan = max(makespan, node.service_time(evals))
        # Hashing is embarrassingly parallel: the prefix tree is replicated
        # cluster-wide and every node ingests (and hashes) its share of the
        # input stream, pipelining with insertion — so the makespan is the
        # slower of per-node insertion and the per-node hashing share.
        entry = self.topology.nodes[0]
        node_count = max(1, len(self.topology.nodes))
        self.stats.simulated_makespan = max(
            makespan, entry.service_time(self.stats.hash_evals // node_count)
        )

    def _place(
        self,
        group: StorageGroup,
        block_ids: Sequence[int],
        held: dict[str, set[int]] | None = None,
        sources: frozenset[int] | None = None,
    ) -> list[tuple[StorageNode, int, int]]:
        """Store *block_ids* on their replicas within *group* and record each
        block's primary and group — the one placement step every build,
        load, insert and topology change goes through.  A block placed on
        another group before leaves that group's set.

        A member receives its new blocks in one ``store_blocks`` call, in
        *block_ids* order; a holder that *held* says already has a block is
        skipped.  A topology change moves blocks nodes hold, so it passes
        the blocks a node can stream them from as *sources*: a block outside
        them is recorded but stored nowhere, and repair counts it lost (a
        build, load or insert stores new input and passes none).  Returns
        ``(node, blocks stored, insert evals)`` for every member that
        received blocks, in group order.
        """
        held = held or {}
        record = self.blocks_of_group
        for group_id, placed in list(record.items()):
            if group_id != group.group_id and not placed.isdisjoint(block_ids):
                record[group_id] = placed.difference(block_ids)
        if block_ids or group.group_id not in record:
            record[group.group_id] = record.get(
                group.group_id, frozenset()
            ).union(block_ids)
        per_node: dict[str, list[int]] = {node.node_id: [] for node in group.nodes}
        for block_id in block_ids:
            replicas = group.place_replicas(
                self.store.block_key(block_id), self.config.replication
            )
            self.node_of_block[block_id] = replicas[0].node_id
            if sources is not None and block_id not in sources:
                continue
            for replica in replicas:
                if block_id not in held.get(replica.node_id, ()):
                    per_node[replica.node_id].append(block_id)
        stored = []
        for member in group.nodes:
            ids = per_node[member.node_id]
            if ids:
                evals = member.store_blocks(self.store.codes_matrix(ids), ids)
                stored.append((member, len(ids), evals))
        return stored

    @staticmethod
    def _held_by(nodes: Sequence[StorageNode]) -> frozenset[int]:
        """The blocks *nodes* hold (a crashed node's durable manifest): all
        a topology change can stream."""
        return frozenset().union(*(node.known_block_ids for node in nodes))

    # -- convenience ----------------------------------------------------------------

    @property
    def segment_length(self) -> int:
        return self.config.segment_length

    def node(self, node_id: str) -> StorageNode:
        for node in self.topology.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(f"no node {node_id!r}")

    def load_fractions(self) -> dict[str, float]:
        """Per-node fraction of stored blocks (the Fig. 5 measure)."""
        return self.topology.load_fractions()

    # -- failure handling -------------------------------------------------------

    def fail_node(self, node_id: str, rereplicate: bool = False) -> StorageNode:
        """Crash-stop one node; with ``rereplicate=True`` immediately stream
        its blocks from surviving replicas so the replication factor is
        restored (the offline analogue of the chaos controller's detected
        repair)."""
        node = self.node(node_id)
        node.fail()
        if rereplicate:
            self.rereplicate(node.group_id)
        self.version += 1
        return node

    def recover_node(self, node_id: str) -> StorageNode:
        """Rejoin a crashed node and reconcile its group's placement.

        The bare :meth:`~repro.cluster.node.StorageNode.recover` leaves the
        cluster over-replicated (repair copies plus the rejoined node's
        original data); this entry point immediately syncs the group back to
        canonical placement so every block ends up on exactly
        ``config.replication`` holders.
        """
        node = self.node(node_id)
        node.recover()
        self.rereplicate(node.group_id)
        self.version += 1
        return node

    def rereplicate(self, group_id: str | None = None):
        """Reconcile placement (one group, or all) against ground-truth
        liveness; returns the :class:`~repro.faults.repair.RepairReport`."""
        from repro.faults.repair import ReReplicator

        repairer = ReReplicator(self)
        if group_id is None:
            return repairer.sync_all()
        return repairer.sync_group(self.topology.group(group_id))

    # -- durability and integrity -----------------------------------------------

    def scrub(self, heal: bool = True, event_log=None, recorder=None,
              registry=None, now: float | None = None):
        """One full anti-entropy pass: digest-verify every replica copy,
        quarantine confirmed-corrupt ones and (with ``heal=True``) stream
        them back from verified replicas immediately.  Returns the
        :class:`~repro.store.scrub.ScrubReport`; the sinks (stamped *now*)
        are :class:`~repro.store.scrub.IntegrityScrubber`'s.  Bumps
        :attr:`version` only when a copy was quarantined, so a clean pass
        keeps result caches warm."""
        from repro.faults.repair import ReReplicator
        from repro.store.scrub import IntegrityScrubber

        repairer = ReReplicator(self)
        scrubber = IntegrityScrubber(
            self,
            event_log=event_log,
            recorder=recorder,
            registry=registry,
            heal=(lambda group, _: repairer.sync_group(group)) if heal else None,
        )
        scrubber.scrub_all(now=now)
        if scrubber.report.quarantined:
            self.version += 1
        return scrubber.report

    def flush_durable(self) -> int:
        """Checkpoint every node's WAL into its snapshot; returns how many
        nodes acknowledged the checkpoint."""
        return sum(1 for node in self.topology.nodes if node.flush_durable())

    def durability_report(self) -> dict:
        """Per-node durable-state status plus cluster-wide rollups."""
        nodes = {
            node.node_id: dict(
                node.durable.status(),
                alive=node.alive,
                degraded=node.durability_degraded,
                ram_blocks=node.block_count,
                recoveries=node.stats.recoveries,
                corrupt_reads=node.stats.corrupt_reads,
            )
            for node in self.topology.nodes
        }
        return {
            "nodes": nodes,
            "durable_blocks": sum(
                status["blocks"] for status in nodes.values()
            ),
            "wal_records": sum(
                status["wal_records"] for status in nodes.values()
            ),
            "degraded_nodes": sorted(
                node_id
                for node_id, status in nodes.items()
                if status["degraded"]
            ),
        }

    # -- tiered storage ----------------------------------------------------------

    @property
    def tiered(self) -> bool:
        """Whether the deployment currently runs with a disk tier."""
        return self.tier_cache is not None

    def spill_to_tier(self, cache_bytes: int | None = None, config=None):
        """Spill every live node's block codes to its on-disk block file,
        serving cold reads through one shared bounded RAM cache.

        Search results stay byte-identical to the all-RAM deployment (the
        tree structure and every traversal decision are unchanged); only
        simulated service times gain cold-read charges.  Returns the
        shared :class:`~repro.tier.cache.BlockCache`.

        Parameters
        ----------
        cache_bytes:
            RAM budget for the shared page cache (overrides *config*).
        config:
            Full :class:`~repro.tier.store.TierConfig`; defaults derive
            the codec alphabet from the index's own alphabet.
        """
        import dataclasses

        from repro.tier.cache import BlockCache
        from repro.tier.store import TierConfig

        if config is None:
            config = TierConfig(alphabet_size=self.alphabet.size)
        if cache_bytes is not None:
            config = dataclasses.replace(config, cache_bytes=int(cache_bytes))
        if self.tiered:
            self.unspill_tier()
        cache = BlockCache(config.cache_bytes)
        for node in self.topology.nodes:
            node.attach_tier(cache, config)
            if node.alive:
                node.spill()
        self.tier_cache = cache
        self.tier_config = config
        self.version += 1
        return cache

    def unspill_tier(self) -> None:
        """Fold every node back to all-RAM and drop the tier policy."""
        if not self.tiered:
            return
        for node in self.topology.nodes:
            node.detach_tier()
        self.tier_cache = None
        self.tier_config = None
        self.version += 1

    def tier_report(self) -> dict:
        """Cluster-wide tier occupancy: cache stats, per-node occupancy,
        and rollups (``repro tier`` and the health endpoint render this)."""
        nodes = {
            node.node_id: occ
            for node in self.topology.nodes
            if (occ := node.tier_occupancy()) is not None
        }
        bytes_on_disk = sum(occ["bytes_on_disk"] for occ in nodes.values())
        raw_bytes = sum(occ["raw_bytes"] for occ in nodes.values())
        resident = sum(occ["resident_bytes"] for occ in nodes.values())
        report = {
            "enabled": self.tiered,
            "spilled_nodes": len(nodes),
            "bytes_on_disk": bytes_on_disk,
            "raw_bytes": raw_bytes,
            "resident_bytes": resident,
            "pinned_bytes": sum(occ["pinned_bytes"] for occ in nodes.values()),
            "pinned_pages": sum(
                occ["pinned_pages"] for occ in nodes.values()
            ),
            "cold_read_seeks": sum(
                occ["cold_read_seeks"] for occ in nodes.values()
            ),
            "cold_read_bytes": sum(
                occ["cold_read_bytes"] for occ in nodes.values()
            ),
            "pages": sum(occ["pages"] for occ in nodes.values()),
            "compression_ratio": (raw_bytes / bytes_on_disk)
            if bytes_on_disk
            else 0.0,
            "resident_fraction": (resident / raw_bytes) if raw_bytes else 0.0,
            "cache": self.tier_cache.stats() if self.tier_cache else None,
            "nodes": nodes,
        }
        return report

    # -- elastic topology mutation ----------------------------------------------

    def _new_node(self, group_id: str, number: int) -> StorageNode:
        """A deterministically seeded node for elastic growth."""
        from repro.cluster.node import HP_DL160, SUNFIRE_X4100

        profile = (
            (HP_DL160, SUNFIRE_X4100)[number % 2]
            if self.config.heterogeneous
            else HP_DL160
        )
        node = StorageNode(
            node_id=f"{group_id}.n{number}",
            group_id=group_id,
            metric_factory=self._metric_factory,
            segment_length=self.config.segment_length,
            profile=profile,
            bucket_capacity=self.config.bucket_capacity,
            rng_seed=number + 1,
        )
        if self.tiered:
            # Elastic growth under a spilled deployment: the new node joins
            # the tier policy, so the blocks streamed onto it land in its
            # block file, not RAM.
            node.attach_tier(self.tier_cache, self.tier_config)
        return node

    def _replace_group(
        self, group: StorageGroup, sources: frozenset[int] | None = None
    ) -> None:
        """Re-place the blocks placed on *group* over its current membership
        — the canonical layout every mutation converges to — from the
        copies its members hold (or *sources*); a block none holds stays
        lost."""
        if sources is None:
            sources = self._held_by(group.nodes)
        for member in group.nodes:
            member.reset_storage()
        self._place(
            group, sorted(self.blocks_of_group[group.group_id]), sources=sources
        )
        self.version += 1

    def refresh_primaries(
        self, group: StorageGroup, is_alive: Callable[[StorageNode], bool]
    ) -> None:
        """Point each block placed on *group* at its first replica that
        *is_alive* accepts (after repair changed the group's holdings); a
        block with no such replica keeps its primary."""
        replication = self.config.replication
        for block_id in self.blocks_of_group[group.group_id]:
            holders = group.place_replicas_alive(
                self.store.block_key(block_id), replication, is_alive
            )
            if holders:
                self.node_of_block[block_id] = holders[0].node_id

    def expand_group(
        self, group_id: str, settle: bool = True
    ) -> TopologyChange:
        """Elastically grow one storage group by a node and redistribute.

        The DHT story of section IV-A — "commodity hardware can be added
        incrementally if there is demand for additional storage or
        processing" — applied to one group: a new node joins, the group's
        placement hash is rebuilt, and blocks whose placement changed are
        *copied* to their new holders (the streaming block transfer).  The
        old copies survive until :meth:`TopologyChange.settle`, so queries
        fanned out under either membership find every block; offline
        callers settle immediately (the default), converging to the
        canonical layout.  Only this group's data moves; the tier-1
        prefix->group assignment is untouched, so the rest of the cluster
        is unaffected.
        """
        group = self.topology.group(group_id)  # KeyError for unknown groups
        number = len(group.nodes)  # after a removal, a member may hold it
        while any(m.node_id == f"{group_id}.n{number}" for m in group.nodes):
            number += 1
        node = self._new_node(group_id, number)
        held_before = {
            member.node_id: set(member.known_block_ids)
            for member in group.nodes
        }
        blocks = sorted(self.blocks_of_group[group_id])
        group.add_node(node)
        streamed = sum(
            count for _, count, _ in self._place(
                group, blocks, held=held_before,
                sources=frozenset().union(*held_before.values()),
            )
        )
        self.version += 1
        change = TopologyChange(
            kind="node_added",
            source=group_id,
            target=node.node_id,
            moved_blocks=streamed,
            _settle_fn=partial(self._replace_group, group),
        )
        if settle:
            change.settle()
        return change

    def remove_node(self, node_id: str) -> StorageNode:
        """Safely drain and remove one node (elastic scale-in).

        The replication factor is never violated: membership shrinks and
        every block placed on the group (including what only the leaving
        node holds) is re-placed over the survivors before the leaving
        node's storage is released.  Removal is refused when it would leave
        the group below the replication factor.
        """
        node = self.node(node_id)  # KeyError for unknown nodes
        group = self.topology.group(node.group_id)
        if len(group.nodes) - 1 < self.config.replication:
            raise ValueError(
                f"removing {node_id!r} would leave group {group.group_id!r} "
                f"with {len(group.nodes) - 1} node(s), below the replication "
                f"factor {self.config.replication}"
            )
        node.flush_durable()  # compact the WAL before the manifest is read
        sources = self._held_by(group.nodes)
        group.remove_node(node_id)
        self._replace_group(group, sources)
        node.reset_storage()
        # Satellite of the scale-in path: the drained node's labelled metric
        # series would otherwise sit in the exposition forever.
        default_registry().purge_labels(node=node_id)
        return node

    def split_group(self, group_id: str, settle: bool = True) -> TopologyChange:
        """Split an overloaded group: half its tier-1 region (and blocks)
        moves to a brand-new group of ``config.group_size`` fresh nodes.

        A group owning several prefixes is cut along the frontier into two
        contiguous runs of ~equal block mass (the same rule the initial
        assignment uses).  A single-prefix group is first *refined* one
        level deeper in the vp-prefix tree
        (:meth:`~repro.vptree.prefix.VPPrefixTree.refine`), partitioning its
        region along the tree's own ball boundary.

        The routing table flips atomically and the moved blocks are stored
        on the new group before the old copies are dropped, so queries
        routed at any moment find every block: pre-split routes still hit
        the retained copies, post-split routes hit the new group.  With
        ``settle=False`` the retained copies survive until
        :meth:`TopologyChange.settle` (the online, in-simulation mode).
        """
        group = self.topology.group(group_id)
        owned = self.topology.prefixes_of(group_id)
        if not owned:
            raise ValueError(f"group {group_id!r} owns no prefixes to split")
        refined: tuple[int, int] | None = None
        if len(owned) < 2:
            refined = self.prefix_tree.refine(owned[0])
            self.topology.retire_prefix(owned[0], refined, group_id)
            owned = self.topology.prefixes_of(group_id)

        group_blocks = sorted(self.blocks_of_group[group_id])
        per_prefix: dict[int, list[int]] = {p: [] for p in owned}
        prefixes, _ = self.prefix_tree.hash_many(
            self.store.codes_matrix(group_blocks)
        )
        for block_id, prefix in zip(group_blocks, prefixes.tolist()):
            per_prefix.setdefault(prefix, []).append(block_id)

        # Contiguous cut of the frontier run closest to half the mass.
        total = len(group_blocks)
        best_cut, best_gap = 1, None
        running = 0
        for cut in range(1, len(owned)):
            running += len(per_prefix[owned[cut - 1]])
            gap = abs(2 * running - total)
            if best_gap is None or gap < best_gap:
                best_gap, best_cut = gap, cut
        moved_prefixes = owned[best_cut:]

        new_gid = self.topology.next_group_id()
        new_group = StorageGroup(
            group_id=new_gid,
            nodes=[
                self._new_node(new_gid, i)
                for i in range(self.config.group_size)
            ],
        )
        self.topology.add_group(new_group)
        self.topology.reassign_prefixes(moved_prefixes, new_gid)
        moved = [bid for p in moved_prefixes for bid in per_prefix[p]]
        self._place(new_group, moved, sources=self._held_by(group.nodes))
        self.version += 1
        change = TopologyChange(
            kind="group_split",
            source=group_id,
            target=new_gid,
            moved_blocks=len(moved),
            refined=refined,
            _settle_fn=partial(self._replace_group, group),
        )
        if settle:
            change.settle()
        return change

    def merge_groups(
        self, source_id: str, target_id: str, settle: bool = True
    ) -> TopologyChange:
        """Merge an underloaded group into another and retire it.

        The source's prefixes re-route to the target and its blocks are
        placed under the target's hash before the source leaves the
        topology; until :meth:`TopologyChange.settle`, the source nodes keep
        serving their retained copies to queries routed pre-merge.  After
        settle, the source nodes are drained and their labelled metric
        series purged.
        """
        if source_id == target_id:
            raise ValueError(f"cannot merge group {source_id!r} into itself")
        source = self.topology.group(source_id)
        target = self.topology.group(target_id)
        for member in source.nodes:
            member.flush_durable()  # compact WALs before the drain reads them
        moved = sorted(self.blocks_of_group[source_id])
        self.topology.reassign_prefixes(
            self.topology.prefixes_of(source_id), target_id
        )
        self._place(target, moved, sources=self._held_by(source.nodes))
        self.topology.remove_group(source_id)
        del self.blocks_of_group[source_id]
        self.version += 1

        def _drain_source() -> None:
            registry = default_registry()
            for member in source.nodes:
                member.reset_storage()
                registry.purge_labels(node=member.node_id)
            registry.purge_labels(group=source_id)
            self.version += 1

        change = TopologyChange(
            kind="group_merged",
            source=source_id,
            target=target_id,
            moved_blocks=len(moved),
            _settle_fn=_drain_source,
        )
        if settle:
            change.settle()
        return change

    def insert_sequences(self, new_sequences: SequenceSet) -> None:
        """Incrementally index additional reference sequences.

        Supports the growth scenario of research challenge 1: new data is
        blocked, hashed with the *existing* prefix tree (the cluster-wide
        hash function is immutable) and batch-inserted into the local trees.
        """
        if new_sequences.alphabet.name != self.alphabet.name:
            raise ValueError(
                f"alphabet mismatch: index is {self.alphabet.name}, "
                f"got {new_sequences.alphabet.name}"
            )
        start_block = len(self.store)
        for record in new_sequences:
            self.database.add(record)
            self.store._ingest(record)

        per_group: dict[str, list[int]] = {}
        prefixes, _ = self.prefix_tree.hash_many(
            self.store.codes_matrix(range(start_block, len(self.store)))
        )
        for block_id, prefix in enumerate(prefixes.tolist(), start_block):
            group = self.topology.group_for_prefix(prefix)
            per_group.setdefault(group.group_id, []).append(block_id)
        for group in self.topology.groups:
            self._place(group, per_group.get(group.group_id, ()))
        self.stats.block_count = len(self.store)
        self.version += 1
