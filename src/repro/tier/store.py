"""The per-node tiered block store: spill, read-through, and recovery.

``NodeTier`` moves a node's block codes from RAM to an on-disk block file
(:mod:`repro.tier.blockfile`) while leaving the node's vp-tree *structure*
untouched.  The exactness contract is structural:

* every internal vertex's **vantage row** lands in a permanently pinned
  page (resident by construction), so internal traversal and pruning never
  touch cold data;
* **leaf buckets** are packed into pages in depth-first order (a bucket
  never straddles a page unless it is larger than one), read through the
  shared :class:`~repro.tier.cache.BlockCache` on demand;
* the tree's ``points`` matrix is replaced by :class:`TieredPoints`, which
  serves the exact same bytes through the same indexing operations — so
  the traversal's pruning decisions, its k-NN results and the distance
  evaluations it is charged are *byte-identical* to what the all-RAM node
  reports (which gets there by a scan, see :mod:`repro.vptree.search`),
  and only service time differs (cold page reads are charged as simulated
  seek + transfer seconds).

Spilling is also a durability checkpoint: the block file carries the same
per-row CRC32 digests the WAL acknowledges, so after a spill the snapshot
and WAL are reset and the block file *is* the node's durable state (the
scrubber and repair planner read it through the node's ``durable_*``
dispatch, including from a crashed node's disk).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import default_registry
from repro.tier import blockfile
from repro.tier.blockfile import BlockFileReader, PageRecord, write_block_file
from repro.tier.cache import BlockCache
from repro.tier.codec import METHOD_NAMES, TierCodecError, encode_page
from repro.tier.summary import PageSummary, SummaryIndex, summarize_rows
from repro.vptree.metric import MetricAdapter
from repro.vptree.tree import VPNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import StorageNode


@dataclass(frozen=True)
class TierConfig:
    """Deployment-wide tiering knobs (kept out of
    :class:`~repro.core.params.MendelConfig` so saved ``MENDELIX`` archives
    round-trip unchanged; tiering is a runtime policy, not index shape)."""

    #: rows per on-disk page; larger pages compress better and amortise
    #: seeks, smaller pages waste less cache on partial working sets
    page_rows: int = 128
    #: shared RAM budget (bytes) for the decoded-page cache
    cache_bytes: int = 1 << 20
    #: simulated seconds per cold fetch (seek + request dispatch)
    seek_seconds: float = 4e-3
    #: simulated seconds per compressed byte read (sequential transfer
    #: plus decompression; ~50 MB/s effective)
    read_seconds_per_byte: float = 2e-8
    #: durable file name on each node's disk
    file_name: str = blockfile.TIER_FILE
    #: probation share of the cache budget (SLRU admission control)
    probation_fraction: float = 0.5
    #: residue alphabet size (enables the 2-bit packed codec when <= 4);
    #: 0 derives it from the spilled data
    alphabet_size: int = 0

    def __post_init__(self) -> None:
        if self.page_rows < 1:
            raise ValueError(f"page_rows must be >= 1, got {self.page_rows}")
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.seek_seconds < 0 or self.read_seconds_per_byte < 0:
            raise ValueError("tier time constants must be >= 0")


class TieredPoints:
    """Drop-in replacement for a vp-tree's ``points`` matrix, backed by the
    tier's pages.

    Supports exactly the access patterns the search and maintenance paths
    use — ``shape``, ``len``, integer row indexing, and integer-array fancy
    indexing — returning the same ``uint8`` bytes the RAM matrix held.
    Cold page fetches accumulate into the owning tier's pending I/O
    counters, which the node drains into simulated service seconds after
    each local search."""

    dtype = np.dtype(np.uint8)

    def __init__(self, tier: "NodeTier") -> None:
        self._tier = tier

    @property
    def shape(self) -> tuple[int, int]:
        return self._tier.row_count, self._tier.width

    def __len__(self) -> int:
        return self._tier.row_count

    @property
    def nbytes(self) -> int:
        return self._tier.row_count * self._tier.width

    def __getitem__(self, key):
        tier = self._tier
        if isinstance(key, (int, np.integer)):
            page = int(tier.page_of[key])
            return tier.fetch_page(page)[int(tier.slot_of[key])]
        idx = np.asarray(key)
        if idx.ndim == 0:
            page = int(tier.page_of[int(idx)])
            return tier.fetch_page(page)[int(tier.slot_of[int(idx)])]
        idx = idx.reshape(-1)
        if idx.size == 0:
            return np.empty((0, tier.width), dtype=np.uint8)
        pages = tier.page_of[idx]
        first = int(pages[0])
        if (pages == first).all():
            # Fast path: a whole leaf bucket lives in one page.
            return tier.fetch_page(first)[tier.slot_of[idx]]
        out = np.empty((idx.size, tier.width), dtype=np.uint8)
        for page in np.unique(pages):
            mask = pages == page
            out[mask] = tier.fetch_page(int(page))[tier.slot_of[idx[mask]]]
        return out

    def __array__(self, dtype=None, copy=None):
        # Explicit materialisation (no caller should need this on the hot
        # path; it exists so accidental coercion stays *correct*).
        full = self._tier.materialize()
        return full if dtype is None else full.astype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredPoints(shape={self.shape}, tier={self._tier.node_id!r})"


def _chunks(values, size: int):
    for start in range(0, len(values), size):
        yield values[start : start + size]


class NodeTier:
    """One node's tier state: block file, pinned pages, summaries, maps."""

    def __init__(
        self, node: "StorageNode", cache: BlockCache, config: TierConfig
    ) -> None:
        self.node = node
        self.node_id = node.node_id
        self.cache = cache
        self.config = config
        # Summary/codec distances run on a fresh adapter over the same
        # metric — the node tree's adapter feeds simulated service times
        # and must stay byte-identical to the all-RAM deployment.
        self.adapter = MetricAdapter(node.tree.adapter.metric)
        self.active = False
        self.row_count = 0
        self.width = int(node.tree.points.shape[1])
        self.reader: BlockFileReader | None = None
        self.summary: SummaryIndex | None = None
        self.page_of = np.empty(0, dtype=np.int32)
        self.slot_of = np.empty(0, dtype=np.int32)
        self._page_rows: list[np.ndarray] = []
        self._pinned_arrays: dict[int, np.ndarray] = {}
        self._row_of_block: dict[int, tuple[int, int]] = {}
        # Victim buffer: the page most recently decoded for this node —
        # per-query scratch (the page "in hand" while a leaf is scanned),
        # held outside the shared budget like the query's own buffers.
        self._last_page: tuple[int, np.ndarray] | None = None
        self.pending_seeks = 0
        self.pending_bytes = 0
        # Lifetime device traffic (never drained — pending_* feed sim-time
        # charges, these feed the tier-cache dashboard panel).
        self.total_seeks = 0
        self.total_bytes = 0
        registry = default_registry()
        self._g_disk = registry.gauge(
            "repro_tier_bytes_on_disk",
            "Compressed block-file bytes on each node's disk",
            ("node",),
        )
        self._g_ratio = registry.gauge(
            "repro_tier_compression_ratio",
            "Raw block bytes over on-disk bytes per node (0 = not tiered)",
            ("node",),
        )
        self._g_resident = registry.gauge(
            "repro_tier_resident_fraction",
            "Fraction of a node's raw block bytes resident in RAM "
            "(pinned vantage pages + cached pages)",
            ("node",),
        )
        self._c_decode_failures = registry.counter(
            "repro_tier_decode_failures_total",
            "Page payloads that failed to decode on read (bit rot caught "
            "by the codec before digest verification)",
            ("node",),
        )

    # -- spill -----------------------------------------------------------------

    def spill(self) -> None:
        """Move the node's block codes to disk, leaving the tree structure
        (and all simulated-search behaviour) untouched."""
        tree = self.node.tree
        if tree.root is None or tree.points.shape[0] == 0:
            return
        points = np.ascontiguousarray(tree.points, dtype=np.uint8)
        n, width = points.shape
        self.width = width
        alphabet_size = self.config.alphabet_size or max(
            2, int(points.max(initial=0)) + 1
        )

        buckets: list[np.ndarray] = []
        vantages: list[int] = []
        stack: list[VPNode] = [tree.root]
        while stack:
            vertex = stack.pop()
            if vertex.is_leaf:
                buckets.append(np.asarray(vertex.bucket, dtype=np.intp))
                continue
            vantages.append(int(vertex.vantage_index))
            if vertex.right is not None:
                stack.append(vertex.right)
            if vertex.left is not None:
                stack.append(vertex.left)

        page_rows: list[np.ndarray] = []
        current: list[np.ndarray] = []
        current_rows = 0
        for bucket in buckets:
            for part in _chunks(bucket, self.config.page_rows):
                if current_rows and current_rows + len(part) > self.config.page_rows:
                    page_rows.append(np.concatenate(current))
                    current, current_rows = [], 0
                current.append(part)
                current_rows += len(part)
        if current_rows:
            page_rows.append(np.concatenate(current))
        data_pages = len(page_rows)
        for chunk in _chunks(vantages, self.config.page_rows):
            page_rows.append(np.asarray(chunk, dtype=np.intp))

        records: list[PageRecord] = []
        summaries: list[PageSummary] = []
        for index, rows_idx in enumerate(page_rows):
            rows = points[rows_idx]
            centroid, radius, histogram = summarize_rows(
                rows, self.adapter, alphabet_size
            )
            method, payload = encode_page(rows, centroid, alphabet_size)
            pinned = index >= data_pages
            records.append(
                PageRecord(
                    payload=payload,
                    method=method,
                    rows=int(rows.shape[0]),
                    block_ids=[int(tree.payloads[r]) for r in rows_idx],
                    tree_rows=[int(r) for r in rows_idx],
                    digests=[
                        zlib.crc32(rows[i].tobytes())
                        for i in range(rows.shape[0])
                    ],
                    centroid=[int(c) for c in centroid],
                    radius=radius,
                    histogram=[int(h) for h in histogram],
                    raw_bytes=int(rows.nbytes),
                    pinned=pinned,
                )
            )
            summaries.append(
                PageSummary(
                    index=index,
                    centroid=centroid,
                    radius=radius,
                    histogram=histogram,
                    rows=int(rows.shape[0]),
                    raw_bytes=int(rows.nbytes),
                    comp_bytes=len(payload),
                    pinned=pinned,
                )
            )

        write_block_file(
            self.node.disk,
            self.config.file_name,
            self.node_id,
            width,
            alphabet_size,
            records,
        )
        self.reader = BlockFileReader(self.node.disk, self.config.file_name)
        self.summary = SummaryIndex(summaries, self.adapter)
        self.row_count = n
        self.page_of = np.full(n, -1, dtype=np.int32)
        self.slot_of = np.full(n, -1, dtype=np.int32)
        for index, rows_idx in enumerate(page_rows):
            self.page_of[rows_idx] = index
            self.slot_of[rows_idx] = np.arange(len(rows_idx), dtype=np.int32)
        self._page_rows = page_rows
        self._pinned_arrays = {
            index: points[rows_idx].copy()
            for index, rows_idx in enumerate(page_rows)
            if index >= data_pages
        }
        self._row_of_block = {
            block_id: (index, slot)
            for index, record in enumerate(records)
            for slot, block_id in enumerate(record.block_ids)
        }
        self.pending_seeks = 0
        self.pending_bytes = 0
        self.active = True

        tree.points = TieredPoints(self)
        if hasattr(tree, "_storage"):
            del tree._storage
        self._update_gauges()

    # -- reads -----------------------------------------------------------------

    def fetch_page(self, index: int) -> np.ndarray:
        """The decoded page: pinned store, then cache, then a cold device
        read (accumulated into pending I/O).  A payload that fails to
        decode yields placeholder rows — search then surfaces no verified
        hit from them and the scrubber quarantines the real bytes."""
        pinned = self._pinned_arrays.get(index)
        if pinned is not None:
            return pinned
        if self._last_page is not None and self._last_page[0] == index:
            return self._last_page[1]
        key = (self.node_id, index)
        rows = self.cache.get(key)
        if rows is not None:
            self._last_page = (index, rows)
            return rows
        meta = self.reader.pages[index]
        self.pending_seeks += 1
        self.pending_bytes += meta.length
        self.total_seeks += 1
        self.total_bytes += meta.length
        try:
            rows = self.reader.read_page(index)
        except TierCodecError:
            self._c_decode_failures.labels(node=self.node_id).inc()
            return np.zeros((meta.rows, self.width), dtype=np.uint8)
        self.cache.put(key, rows)
        self._last_page = (index, rows)
        return rows

    def drain_io(self) -> tuple[int, int]:
        """``(seeks, bytes)`` accumulated since the last drain."""
        seeks, nbytes = self.pending_seeks, self.pending_bytes
        self.pending_seeks = 0
        self.pending_bytes = 0
        return seeks, nbytes

    def io_seconds(self, seeks: int, nbytes: int) -> float:
        """Simulated device time for *seeks* cold fetches totalling
        *nbytes* compressed bytes (not scaled by CPU speed — this is the
        storage device, not the node's processor)."""
        return (
            seeks * self.config.seek_seconds
            + nbytes * self.config.read_seconds_per_byte
        )

    def prefetch(
        self, window_codes: list[np.ndarray], radius: float
    ) -> list[tuple[str, int]]:
        """Routing-time prefetch: load every page whose summary ball can
        intersect a subquery's search ball, in one batched sequential
        fetch (a single seek), and pin the candidate set for the subquery's
        lifetime.  Returns the pinned keys for :meth:`release_pins`."""
        if not self.active or self.summary is None:
            return []
        candidates: set[int] = set()
        for codes in window_codes:
            candidates.update(self.summary.candidates(codes, radius))
        pinned_keys: list[tuple[str, int]] = []
        fetched = 0
        batch_bytes = 0
        # Pin at most half the shared budget: the pinned candidate set must
        # never starve read-through admission for the rest of the query
        # (concurrent subqueries each need headroom too).
        pin_budget = self.cache.capacity_bytes // 2
        for index in sorted(candidates):
            if self.cache.pinned_bytes >= pin_budget:
                # Past the pin budget further prefetch admissions would only
                # evict each other out of probation; leave the remainder to
                # read-through.
                break
            if index in self._pinned_arrays:
                continue
            key = (self.node_id, index)
            rows = self.cache.get(key, count=False)
            if rows is None:
                meta = self.reader.pages[index]
                try:
                    rows = self.reader.read_page(index)
                except TierCodecError:
                    self._c_decode_failures.labels(node=self.node_id).inc()
                    continue
                if not self.cache.put(key, rows, prefetch=True):
                    continue  # budget exhausted: read-through will serve it
                fetched += 1
                batch_bytes += meta.length
            if self.cache.pinned_bytes < pin_budget and self.cache.pin(key):
                pinned_keys.append(key)
        if fetched:
            self.pending_seeks += 1
            self.pending_bytes += batch_bytes
            self.total_seeks += 1
            self.total_bytes += batch_bytes
        return pinned_keys

    def release_pins(self, keys: list[tuple[str, int]]) -> None:
        for key in keys:
            self.cache.unpin(key)

    # -- durability dispatch ---------------------------------------------------

    def manifest_ids(self) -> list[int]:
        """Insertion-ordered block manifest, read from the on-disk table
        (answers even for a crashed process — the disk survives)."""
        return blockfile.manifest_ids(self.node.disk, self.config.file_name)

    def digest(self, block_id: int) -> int | None:
        location = self._row_of_block.get(block_id)
        if location is None or self.reader is None:
            return None
        page, slot = location
        return self.reader.pages[page].digests[slot]

    def verify(self, block_id: int) -> bool:
        """Digest-verify one block against the device's *current* bytes."""
        location = self._row_of_block.get(block_id)
        if location is None or self.reader is None:
            return True
        return self.reader.verify_row(*location)

    def corrupt_block(self, block_id: int, bit: int = 0) -> None:
        """Bit-rot injection for tests/chaos: flip one bit inside the page
        payload holding *block_id* (mirrors ``DurableNodeState.corrupt_block``)."""
        page, _slot = self._row_of_block[block_id]
        meta = self.reader.pages[page]
        offset = self.reader._payload_base + meta.offset + meta.length // 2
        self.node.disk.flip_bit(self.config.file_name, offset, bit)
        # Cached copies predate the flip; drop them so reads see the device.
        self.cache.drop_node(self.node_id)
        self._last_page = None

    # -- lifecycle -------------------------------------------------------------

    def has_file(self) -> bool:
        return self.node.disk.exists(self.config.file_name)

    def materialize(self) -> np.ndarray:
        """The full ``(n, width)`` codes matrix in tree-row order, read
        from pinned pages and the device (no cache churn, no simulated I/O
        — spill/unspill are control-plane moves, not query service)."""
        codes = np.empty((self.row_count, self.width), dtype=np.uint8)
        for index, rows_idx in enumerate(self._page_rows):
            pinned = self._pinned_arrays.get(index)
            if pinned is not None:
                codes[rows_idx] = pinned
                continue
            try:
                codes[rows_idx] = self.reader.read_page(index)
            except TierCodecError:
                self._c_decode_failures.labels(node=self.node_id).inc()
                codes[rows_idx] = 0
        return codes

    def file_contents(self) -> tuple[np.ndarray, list[int]]:
        """``(codes, block_ids)`` in insertion order, parsed fresh from the
        device — the crash-recovery read path (RAM row maps not trusted)."""
        reader = BlockFileReader(self.node.disk, self.config.file_name)
        by_block: dict[int, np.ndarray] = {}
        for index, meta in enumerate(reader.pages):
            try:
                rows = reader.read_page(index)
            except TierCodecError:
                self._c_decode_failures.labels(node=self.node_id).inc()
                rows = np.zeros((meta.rows, reader.width), dtype=np.uint8)
            for slot, block_id in enumerate(meta.block_ids):
                by_block[block_id] = rows[slot]
        codes = (
            np.stack([by_block[b] for b in reader.manifest])
            if reader.manifest
            else np.empty((0, reader.width), dtype=np.uint8)
        )
        return codes, list(reader.manifest)

    def detach(self) -> None:
        """Process death: the node's share of the cache dies with its RAM;
        the block file stays on disk for manifest reads and recovery."""
        self.cache.drop_node(self.node_id)
        self._last_page = None
        self.active = False

    def discard(self) -> None:
        """Tear the tier down completely (unspill or placement reset):
        cache entries dropped, block file deleted, gauges zeroed."""
        self.cache.drop_node(self.node_id)
        self._last_page = None
        self.node.disk.delete(self.config.file_name)
        self.active = False
        self._g_disk.labels(node=self.node_id).set(0.0)
        self._g_ratio.labels(node=self.node_id).set(0.0)
        self._g_resident.labels(node=self.node_id).set(0.0)

    # -- reporting -------------------------------------------------------------

    @property
    def bytes_on_disk(self) -> int:
        return self.node.disk.size(self.config.file_name)

    @property
    def raw_bytes(self) -> int:
        return 0 if self.reader is None else self.reader.raw_bytes

    @property
    def pinned_bytes(self) -> int:
        return sum(arr.nbytes for arr in self._pinned_arrays.values())

    @property
    def resident_bytes(self) -> int:
        return self.pinned_bytes + self.cache.resident_bytes_for(self.node_id)

    @property
    def summary_bytes(self) -> int:
        """RAM cost of the always-resident page summaries (centroid bytes,
        radius, histogram counts)."""
        if self.summary is None:
            return 0
        return sum(
            s.centroid.nbytes + s.histogram.nbytes + 8
            for s in self.summary.summaries
        )

    @property
    def compression_ratio(self) -> float:
        disk = self.bytes_on_disk
        return self.raw_bytes / disk if disk else 0.0

    @property
    def resident_fraction(self) -> float:
        raw = self.raw_bytes
        return self.resident_bytes / raw if raw else 0.0

    def occupancy(self) -> dict:
        """Tier occupancy report for one node (also refreshes gauges)."""
        methods: dict[str, int] = {}
        if self.reader is not None:
            for meta in self.reader.pages:
                name = METHOD_NAMES.get(meta.method, str(meta.method))
                methods[name] = methods.get(name, 0) + 1
        report = {
            "active": self.active,
            "pages": len(self._page_rows),
            "pinned_pages": len(self._pinned_arrays),
            "rows": self.row_count,
            "bytes_on_disk": self.bytes_on_disk,
            "raw_bytes": self.raw_bytes,
            "pinned_bytes": self.pinned_bytes,
            "summary_bytes": self.summary_bytes,
            "resident_bytes": self.resident_bytes,
            "compression_ratio": self.compression_ratio,
            "resident_fraction": self.resident_fraction,
            "cold_read_seeks": self.total_seeks,
            "cold_read_bytes": self.total_bytes,
            "codec_pages": methods,
        }
        self._update_gauges()
        return report

    def _update_gauges(self) -> None:
        self._g_disk.labels(node=self.node_id).set(float(self.bytes_on_disk))
        self._g_ratio.labels(node=self.node_id).set(self.compression_ratio)
        self._g_resident.labels(node=self.node_id).set(self.resident_fraction)
