"""Storage nodes: the unit of the simulated cluster (section IV / VI-A.1).

A :class:`StorageNode` owns a local dynamic vp-tree over the inverted-index
blocks hashed to it, plus a simple service-time model calibrated by a
*speed factor* so the heterogeneous testbed of the paper (25 HP DL160 +
25 Sun SunFire X4100) can be mirrored: the slower half of the cluster gets a
lower speed factor and work takes proportionally longer in simulated time.

The time model charges per *logical distance evaluation* performed by the
node's search (counted by the search itself, :mod:`repro.vptree.search`),
so simulated service times track the real algorithmic work done rather than
a fixed constant — this is what lets the evaluation figures reproduce shape
without a physical testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.obs.metrics import default_registry
from repro.store.disk import NodeDisk
from repro.store.durable import DurableNodeState
from repro.tier.cache import BlockCache
from repro.tier.store import NodeTier, TierConfig
from repro.util.validation import check_positive
from repro.vptree.dynamic import DynamicVPTree
from repro.vptree.search import lane_hits, nearest_pairs, part_search


@dataclass
class NodeProfile:
    """Hardware class of a node.

    ``seconds_per_eval`` is the base cost of one segment-distance evaluation
    on a reference machine; a node's effective cost is divided by its
    ``speed_factor``.
    """

    name: str = "reference"
    speed_factor: float = 1.0
    seconds_per_eval: float = 2e-6

    def __post_init__(self) -> None:
        check_positive("speed_factor", self.speed_factor)
        check_positive("seconds_per_eval", self.seconds_per_eval)


#: The two hardware classes of the paper's 50-node testbed.
HP_DL160 = NodeProfile(name="hp-dl160", speed_factor=1.0)
SUNFIRE_X4100 = NodeProfile(name="sunfire-x4100", speed_factor=0.6)


@dataclass
class NodeStats:
    blocks_stored: int = 0
    queries_served: int = 0
    #: durability-layer counters (survive crashes: they describe what the
    #: experiment observed, not what the node's RAM held)
    blocks_recovered: int = 0
    recoveries: int = 0
    corrupt_reads: int = 0


class SearchCost(NamedTuple):
    """What one window of a :meth:`StorageNode.local_knn` call cost: its
    distance evaluations and the modelled CPU service time for them."""

    evals: int
    seconds: float


class Searches(list):
    """One ``(hits, SearchCost)`` per window of a :meth:`StorageNode.local_knn`
    call, and which search served it (``"parts"``/``"vptree"``)."""

    path = "vptree"


def parts_selective(width: int, mismatches: int, letters: int) -> bool:
    """Whether *width*-residue windows over *letters* letters are served
    from their ``m + 1`` pigeonhole part keys: a random row equals a window
    on one at odds of at most 1 in 256 (the crossover with the vp-tree,
    measured between 7.0 and 10.6 bits whatever the node's size; DESIGN.md)
    and m > 0 (a radius-0 vp-tree walk is already an exact lookup)."""
    bits = width // (mismatches + 1) * math.log2(letters) - math.log2(mismatches + 1)
    return mismatches > 0 and bits >= 8


def named_knn(
    jobs: "Sequence[tuple[StorageNode, np.ndarray, Sequence[np.ndarray]]]",
    k: int, max_radius: float,
) -> list[Searches]:
    """The part-path search of several all-RAM nodes at once, one
    ``(node, windows, candidates)`` job each: each node's named rows
    (:meth:`StorageNode.named_rows`) from its own matrix, every job's pairs
    scored in one :func:`~repro.vptree.search.nearest_pairs` pass, and each
    window's *k* nearest within *max_radius* in (distance, tree row) order.
    A window's result depends on its own pairs alone, so each job's
    :class:`Searches` equal the node's own :meth:`StorageNode.local_knn`
    (which reads no cold pages here); like it, nothing is counted on the
    node."""
    named = [node.named_rows(candidates) for node, _, candidates in jobs]
    offsets = np.cumsum([0] + [len(windows) for _, windows, _ in jobs]).tolist()
    queries = np.concatenate([windows for _, windows, _ in jobs])
    lanes = np.concatenate([lanes + lo for lo, (lanes, _, _) in zip(offsets, named)])
    rows = np.concatenate([rows for _, rows, _ in named])
    gathered = np.concatenate([node.tree.points[rows]
                               for (node, _, _), (_, rows, _) in zip(jobs, named)])
    # The pass counts on the first node's metric: each node's share of the
    # evaluations moves to its own.
    adapter = jobs[0][0].tree.adapter
    lane, pair, found, scored = nearest_pairs(
        adapter, queries, k, max_radius, lanes, rows,
        lambda start, stop: gathered[start:stop])
    adapter.pair_evaluations -= lanes.size
    hits = lane_hits(lane, pair, found, offsets[-1],
                     np.concatenate([ids for _, _, ids in named]).tolist())
    out = []
    for at, ((node, _, _), (_, rows, _)) in enumerate(zip(jobs, named)):
        node.tree.adapter.pair_evaluations += rows.size
        lo, hi = offsets[at], offsets[at + 1]
        searches = Searches()
        searches.path = "parts"
        searches.extend(
            (hits[lane], SearchCost(evals, node.service_time(evals)))
            for lane, evals in enumerate(scored[lo:hi].tolist(), lo))
        out.append(searches)
    return out


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


_NONE_HELD = _read_only(np.empty(0, dtype=np.int64))
_NO_ROWS = _read_only(np.empty(0, dtype=np.intp))


class ReadCost(NamedTuple):
    """The cold tier reads one :meth:`StorageNode.local_knn` call paid for
    — pages its distance pass had to take from the device, their compressed
    bytes, and the modelled device time (all zero on a RAM node)."""

    seeks: int = 0
    nbytes: int = 0
    seconds: float = 0.0


class StorageNode:
    """One simulated storage node.

    Its acknowledged bytes live in one durable medium, :attr:`durable`:
    the snapshot + WAL (:class:`~repro.store.durable.DurableNodeState`)
    while the node is all-RAM, its block file
    (:class:`~repro.tier.store.NodeTier`) while it is spilled and after it
    crashes spilled.  Only :meth:`spill`, :meth:`unspill`, :meth:`recover`
    and :meth:`reset_storage` switch it; every reader asks ``durable``.

    Parameters
    ----------
    node_id:
        Cluster-unique identifier (``"g03.n1"`` style).
    group_id:
        Owning storage group.
    metric_factory:
        Zero-argument callable producing a fresh segment metric; each node
        gets its own :class:`MetricAdapter` so per-node work is countable.
    segment_length:
        Length of indexed inverted-index blocks.
    profile:
        Hardware class (service-time calibration).
    bucket_capacity:
        Leaf bucket size of the local vp-tree.
    """

    def __init__(
        self,
        node_id: str,
        group_id: str,
        metric_factory: Callable[[], Callable],
        segment_length: int,
        profile: NodeProfile = HP_DL160,
        bucket_capacity: int = 32,
        rng_seed: int = 0,
    ) -> None:
        self.node_id = node_id
        self.group_id = group_id
        self.profile = profile
        self.stats = NodeStats()
        #: failure-injection flag: dead nodes are skipped by query fan-out
        #: (fault-tolerance extension; paper section VII-B future work)
        self.alive = True
        #: failure-detector hint: heartbeats have been missed but the node is
        #: not yet declared dead (queries hedge against suspected nodes)
        self.suspected = False
        #: chaos-layer straggler injection: a temporary multiplier on the
        #: node's effective speed (< 1 slows the node down); composed with
        #: the hardware-class ``speed_factor``
        self.speed_multiplier = 1.0
        self.tree = DynamicVPTree(
            metric=metric_factory(),
            segment_length=segment_length,
            bucket_capacity=bucket_capacity,
            rng=rng_seed,
        )
        #: block ids stored locally, in insertion order
        self.block_ids: list[int] = []
        #: the same ids, sorted and read-only: replaced (never changed in
        #: place) on every change of holdings, so a reader may key a cache
        #: on its identity
        self.held: np.ndarray = _NONE_HELD
        #: the tree row of each id of :attr:`held`, replaced with it
        self.held_rows: np.ndarray = _NO_ROWS
        #: ``((id(durable), disk generation), {block id: verdict})``, replaced
        #: whole, never cleared, when either moves (a new medium is written,
        #: so the generation moves too: no old medium is kept alive)
        self._verdicts: tuple = ((None, -1), {})
        #: the node's local block device and the durable medium on it that
        #: holds its acknowledged blocks — snapshot + WAL, or the block file
        #: while spilled; survives :meth:`fail`, which only kills the in-RAM
        #: index
        self.disk = NodeDisk()
        self.durable: DurableNodeState | NodeTier = DurableNodeState(
            self.disk, node_id
        )
        #: set when a durable append went unacknowledged (torn write, full
        #: disk): the node serves from RAM but its WAL is behind
        self.durability_degraded = False
        #: replay report of the last :meth:`recover`, for introspection
        self.last_recovery: dict | None = None
        #: the tier serving this node's block codes while it is spilled and
        #: alive (``None`` while all-RAM or crashed; a crashed spilled
        #: node's block file is still :attr:`durable`)
        self.tier: NodeTier | None = None
        #: ``(cache, config)`` once the deployment attached tiering; kept
        #: across unspill/reset so maintenance flows can re-spill
        self._tier_attach: tuple[BlockCache, TierConfig] | None = None
        #: bumped by every change to what a search reads: holdings, tree
        #: rows, the tier and the durable medium (see :attr:`stamp`)
        self._mutations = 0
        # Resolved once so the per-search cost is a lock-and-add, not a
        # registry lookup.
        self._m_evals = default_registry().counter(
            "repro_distance_evaluations_total",
            "Logical segment-distance evaluations performed by local vp-trees",
            ("group",),
        ).labels(group=group_id)

    # -- storage -------------------------------------------------------------

    def store_blocks(self, codes: np.ndarray, block_ids: list[int]) -> int:
        """Index a batch of blocks (rows of *codes*) in the local vp-tree
        and journal each insert to the node's write-ahead log; returns the
        distance evaluations the insert cost.

        An insert is *acknowledged* only once its WAL record is fully on
        the device; appends a torn write or full disk refused leave the
        node serving from RAM with :attr:`durability_degraded` set (the
        cluster layer re-replicates the gap after a restart)."""
        if codes.ndim == 1:
            codes = codes[None, :]
        if codes.shape[0] != len(block_ids):
            raise ValueError(
                f"{codes.shape[0]} code rows vs {len(block_ids)} block ids"
            )
        # Inserts (and their rebuilds) run over the RAM matrix; a tiered
        # node folds back first and re-spills below, so repair streams,
        # quarantine rebuilds, and placement moves need no tier awareness.
        self.unspill()
        # The one bracket of the adapter's lifetime count: an insert is
        # the tree's only writer (searches count their own evaluations).
        before = self.tree.adapter.pair_evaluations
        self.tree.insert_batch(codes, payloads=block_ids)
        evals = self.tree.adapter.pair_evaluations - before
        self.block_ids.extend(block_ids)
        self._index_held()
        self.stats.blocks_stored += len(block_ids)
        self._journal(block_ids, codes)
        if self._tier_attach is not None and self.alive:
            self.spill()
        return evals

    def drop_blocks(
        self,
        block_ids: Iterable[int],
        codes_of: Callable[[list[int]], np.ndarray],
    ) -> None:
        """Rebuild this node without *block_ids*: RAM index and durable
        state start empty, then the kept blocks are stored again in
        ascending id order — the order a build gives, whatever order they
        arrived in — their codes fetched through *codes_of*.  The dynamic
        vp-tree has no tombstones, so the rebuild stands in for a
        background compaction."""
        keep = sorted(set(self.block_ids) - set(block_ids))
        self.reset_storage()
        if keep:
            self.store_blocks(codes_of(keep), keep)

    def _index_held(self) -> None:
        """Replace :attr:`held` and :attr:`held_rows` from
        :attr:`block_ids`, whose order is the tree's row order."""
        held, rows = np.unique(np.asarray(self.block_ids, dtype=np.int64),
                               return_index=True)
        self.held, self.held_rows = _read_only(held), _read_only(rows)
        self._mutations += 1

    @property
    def stamp(self) -> int:
        """A count that moves whenever what a search of this node reads
        does: its holdings, tree rows, tier (attach, spill, unspill), durable
        medium, or the bytes on its disk (``NodeDisk.generation``, bumped by
        every write, truncation and bit flip).  Both terms only grow, so
        their sum is unchanged exactly when neither moved."""
        return self._mutations + self.disk.generation

    def _journal(self, block_ids: Sequence[int], codes: np.ndarray) -> None:
        """Append one WAL insert per block (row of *codes*).  An append the
        device refused leaves the node serving from RAM with
        :attr:`durability_degraded` set."""
        if not block_ids:
            return
        for block_id, row in zip(block_ids, codes):
            if not self.durable.append_insert(block_id, row):
                self.durability_degraded = True

    def verdicts(self, block_ids: Sequence[int]) -> list[bool]:
        """Verified read gate, one flag per id: does this node's durable
        copy of the block still match its acknowledged content digest?
        ``True`` when no durable record exists (nothing to distrust — e.g.
        a block indexed during a degraded-durability window).  Counts
        nothing (:meth:`verify_blocks` does).  A verdict stands until
        the durable medium is another object or its disk's ``generation``
        moves (every write, truncation and bit flip bumps it), so only ids
        not read since are read: on a spilled node each page they fall in
        is decoded once per call, fresh."""
        key, verdicts = self._verdicts
        if key != (id(self.durable), self.disk.generation):
            key, verdicts = self._verdicts = ((id(self.durable), self.disk.generation), {})
        unread = list(dict.fromkeys(b for b in block_ids if b not in verdicts))
        for block_id, ok in zip(unread, self.durable.verify_many(unread) if unread else ()):
            verdicts[block_id] = ok is not False
        return [verdicts[block_id] for block_id in block_ids]

    def verify_blocks(self, block_ids: Sequence[int]) -> list[bool]:
        """:meth:`verdicts`, counting every ``False`` as one corrupt read."""
        verified = self.verdicts(block_ids)
        self.stats.corrupt_reads += verified.count(False)
        return verified

    def served(self, windows: int, evals: int, corrupt_reads: int = 0) -> None:
        """Count one node-subquery this node served: *windows* searches,
        *evals* distance evaluations, *corrupt_reads* hits whose durable copy
        failed its digest.  A search counts nothing itself, so the query
        replay counts each attempt once, at the node's service time."""
        self.stats.queries_served += windows
        self.stats.corrupt_reads += corrupt_reads
        self._m_evals.inc(evals)

    # -- tiered storage --------------------------------------------------------

    @property
    def tiered(self) -> bool:
        """Whether this node currently serves block codes from its tier."""
        return self.tier is not None

    def attach_tier(self, cache: BlockCache, config: TierConfig) -> None:
        """Adopt the deployment's shared block cache and tier policy.
        Flows that must fold the node back into RAM (inserts, quarantine
        repair, placement resets, recovery) re-spill on exit."""
        self._tier_attach = (cache, config)
        self._mutations += 1

    def detach_tier(self) -> None:
        """Fold back to RAM and forget the tier policy entirely."""
        self.unspill()
        self._tier_attach = None
        self._mutations += 1

    def spill(self) -> None:
        """Move this node's block codes into its on-disk block file.

        The vp-tree *structure* is untouched: vantage rows stay pinned in
        RAM, data pages are read through the shared cache once per search
        call, and every search returns byte-identical results — only
        service time gains the cold read charges.  The block file then
        carries the durable digests, so the snapshot + WAL are deleted and
        the file becomes :attr:`durable` until :meth:`unspill` re-journals
        it."""
        if self._tier_attach is None:
            raise RuntimeError(
                f"node {self.node_id!r} has no tier attached; call attach_tier"
            )
        if self.tiered:
            return
        cache, config = self._tier_attach
        tier = NodeTier(self, cache, config)
        if not tier.spill():  # empty node: nothing to spill
            return
        self.durable.reset()
        self.tier = self.durable = tier
        self.durability_degraded = False
        self._mutations += 1

    def unspill(self) -> None:
        """Fold the block file back: rebuild the codes matrix from it,
        delete it, and re-journal the rows to a fresh WAL (insertion
        order).  A crashed node has no RAM to fold into, so its file's
        rows go to the WAL alone (a write that reaches a crashed spilled
        node lands beside them).  A no-op while the WAL is the medium."""
        if not isinstance(self.durable, NodeTier):
            return
        if self.tier is not None:
            block_ids, codes = self.block_ids, self.tier.materialize()
            self.tree._storage = self.tree.points = codes
            self._mutations += 1
        else:
            rep = self.durable.replay()
            block_ids, codes = rep.block_ids, rep.codes
        self._empty_wal()
        self._journal(block_ids, codes)

    def _empty_wal(self) -> None:
        """Make an empty snapshot + WAL the durable medium, deleting the
        block file (and stopping the tier) if the node had one."""
        if isinstance(self.durable, NodeTier):
            self.durable.discard()
            self.durable = DurableNodeState(self.disk, self.node_id)
        self.tier = None
        self.durable.reset()
        self._mutations += 1

    def tier_occupancy(self) -> dict | None:
        """Tier occupancy report, or ``None`` while all-RAM."""
        return self.tier.occupancy() if self.tiered else None

    # -- local search with time accounting ------------------------------------

    def local_knn(
        self,
        windows: np.ndarray,
        k: int,
        max_radius: float = float("inf"),
        mismatches: int | None = None,
        letters: int | None = None,
        candidates: Sequence[np.ndarray] | None = None,
    ) -> tuple[Searches, ReadCost]:
        """k-NN over the local rows for a ``(W, L)`` batch of query
        windows — one node-subquery; returns ``(searches, reads)``.

        ``searches`` holds one ``(hits, cost)`` per row, in row order:
        ``hits`` are ``(distance, block_id)`` pairs, ``cost`` the
        :class:`SearchCost` of that window.  ``reads`` is the
        :class:`ReadCost` of the whole call: a spilled node reads its pages
        once for all the windows, so cold reads belong to the subquery, not
        to a window.  ``max_radius`` bounds the search ball (the query
        pipeline passes the largest distance its identity filter could
        accept).  The call counts nothing on the node: :meth:`served` does.

        Given the identity filter's bound (at most *mismatches*
        mismatches, codes over *letters* letters) where
        :func:`parts_selective` holds, and each window's *candidates* (the
        ids the system entry's part-key directory names: blocks equal to
        the window on one of ``mismatches + 1`` parts, as every filter
        passer is), :func:`~repro.vptree.search.part_search` serves the
        call instead of the vp-tree: the *k* nearest in the ball among the
        named blocks this node holds (:meth:`named_rows`).  A spilled node
        reads only the pages holding them.  A window is charged an
        evaluation a row scored.
        """
        searches = Searches()
        if self.serves_parts(mismatches, letters, candidates):
            lanes, rows, _ids = self.named_rows(candidates)
            found = part_search(self.tree, windows, k, max_radius, lanes, rows)
            searches.path = "parts"
        else:
            found = self.tree.knn(windows, k, max_radius=max_radius)
        searches.extend(
            (hits, SearchCost(evals, self.service_time(evals)))
            for hits, evals in found
        )
        reads = ReadCost()
        if found.cold_reads:
            # Cold page fetches are charged as device time (seek +
            # transfer), not scaled by CPU speed.
            reads = ReadCost(
                found.cold_reads, found.cold_bytes,
                self.tier.io_seconds(found.cold_reads, found.cold_bytes),
            )
        return searches, reads

    def serves_parts(self, mismatches: int | None, letters: int | None,
                     candidates) -> bool:
        """Whether a subquery whose windows carry *candidates* is served
        from the named blocks (:meth:`local_knn`): they are named and
        :func:`parts_selective` holds for the filter's bound."""
        return candidates is not None and parts_selective(
            self.tree.segment_length, mismatches, letters)

    def named_rows(
        self, candidates: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The named blocks this node holds, one ``searchsorted`` into
        :attr:`held`: ``(lanes, rows, ids)`` — the window that named each
        (its position in *candidates*), its tree row and its block id, in
        the order named."""
        lanes = np.repeat(np.arange(len(candidates)), [len(c) for c in candidates])
        ids, held = np.concatenate(candidates), self.held
        at = np.searchsorted(held, ids)
        mine = at < held.size
        mine[mine] = held[at[mine]] == ids[mine]
        return lanes[mine], self.held_rows[at[mine]], ids[mine]

    def service_time(self, evals: int, overhead_evals: int = 50) -> float:
        """Simulated seconds to perform *evals* distance evaluations
        (plus a fixed request-handling overhead) on this hardware class."""
        total = evals + overhead_evals
        return total * self.profile.seconds_per_eval / self._effective_speed()

    def service_time_ops(self, residue_ops: float) -> float:
        """Simulated seconds for *residue_ops* elementary residue operations
        (one segment-distance evaluation costs ``segment_length`` of them);
        used to charge extension and aggregation work."""
        per_residue = self.profile.seconds_per_eval / max(1, self.tree.segment_length)
        return residue_ops * per_residue / self._effective_speed()

    def _effective_speed(self) -> float:
        return self.profile.speed_factor * self.speed_multiplier

    def reset_storage(self) -> None:
        """Drop all locally indexed blocks — RAM index *and* durable state
        (used when the group reshuffles placement after membership changes;
        the caller re-stores the canonical set, re-journalling it)."""
        self._empty_wal()
        self._wipe_ram()
        self.durability_degraded = False

    def _wipe_ram(self) -> None:
        """Fresh empty vp-tree; durable state untouched."""
        metric = self.tree.adapter.metric
        self.tree = DynamicVPTree(
            metric=metric,
            segment_length=self.tree.segment_length,
            bucket_capacity=self.tree.bucket_capacity,
            rng=0,
        )
        self.block_ids = []
        self.held, self.held_rows = _NONE_HELD, _NO_ROWS
        self._mutations += 1

    def fail(self) -> None:
        """Crash-stop the node: the process (and with it every in-RAM
        structure) is gone; only :attr:`disk` survives, and
        :meth:`recover` rebuilds the node from it."""
        self.alive = False
        self.suspected = False
        if self.tier is not None:
            # The process's share of the shared cache dies with its RAM; the
            # block file stays on disk, still :attr:`durable`.
            self.tier.cache.drop_node(self.node_id)
            self.tier = None
        self._wipe_ram()

    def recover(self) -> None:
        """Restart a crashed node strictly from its durable state.

        RAM was wiped by :meth:`fail`; the local index is rebuilt by
        replaying :attr:`durable` (torn WAL tails truncated, the last
        replay's report kept in :attr:`last_recovery`).  A node that
        crashed spilled replays its block file and journals the rows to a
        fresh WAL; while a tier is attached the node spills again.  The
        replayed placement may be *stale*: if re-replication moved this node's
        blocks to successors while it was down, rejoining with the old
        placement leaves blocks over-replicated (and misses blocks indexed
        during the outage).  Callers that manage placement should prefer
        :meth:`repro.core.index.MendelIndex.recover_node`, which rejoins
        *and* reconciles the group back to canonical placement.
        """
        self.alive = True
        self.suspected = False
        self.restore_speed()
        rep = self.durable.replay()
        self._wipe_ram()
        if rep.block_ids:
            self.tree.insert_batch(rep.codes, payloads=rep.block_ids)
            self.block_ids = list(rep.block_ids)
            self._index_held()
        if isinstance(self.durable, NodeTier):
            self._empty_wal()
            self._journal(rep.block_ids, rep.codes)
        if self._tier_attach is not None:
            self.spill()
        self.last_recovery = rep.to_dict()
        self.stats.recoveries += 1
        self.stats.blocks_recovered += len(rep.block_ids)

    def flush_durable(self) -> bool:
        """Checkpoint :attr:`durable` (drain/decommission path): the WAL
        folds into the snapshot, a block file has nothing to fold.
        Returns ``False`` when the device refused the write."""
        return self.durable.checkpoint()

    def slow_down(self, multiplier: float) -> None:
        """Straggler injection: scale this node's effective speed by
        *multiplier* (< 1 slows it down) until :meth:`restore_speed`."""
        check_positive("multiplier", multiplier)
        self.speed_multiplier = multiplier

    def restore_speed(self) -> None:
        self.speed_multiplier = 1.0

    @property
    def block_count(self) -> int:
        return len(self.block_ids)

    @property
    def known_block_ids(self) -> list[int]:
        """The blocks this node holds: live RAM contents while it is up;
        the durable manifest once it has crashed (a dead process answers
        nothing, but its disk still says what it held).  Which blocks are
        placed on its group is the index's record
        (``MendelIndex.blocks_of_group``), not the union of these."""
        if self.alive:
            return self.block_ids
        return self.durable.manifest_ids()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageNode({self.node_id!r}, group={self.group_id!r}, "
            f"blocks={self.block_count}, profile={self.profile.name})"
        )
