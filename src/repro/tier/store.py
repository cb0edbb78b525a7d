"""The per-node tiered block store: spill, the page-ordered read, recovery.

``NodeTier`` moves a node's block codes from RAM to an on-disk block file
(:mod:`repro.tier.blockfile`) while leaving the node's vp-tree *structure*
untouched.  The exactness contract is structural:

* every internal vertex's **vantage row** lands in a permanently pinned
  page (resident by construction);
* every other row lands in a **data page**, ``page_rows`` rows a page in
  ascending block id.  A block is a stride-1 window of one record (paper
  section V-A.1), so consecutive ids are overlapping windows of one
  sequence: a read's candidates — runs of windows of its source and of
  each family member — share a page or two, and the page codec sees
  neighbouring rows that share all but one residue;
* the tree's ``points`` matrix is replaced by :class:`TieredPoints`, which
  holds the exact same bytes, so the distances a search computes — and with
  them its pruning decisions, its k-NN results and the distance evaluations
  it is charged — are *byte-identical* to the all-RAM node's, and only
  service time differs.

**The I/O model (paper vs ours).**  The paper's node keeps its blocks in RAM
and walks its vp-tree.  A spilled node here is searched the way a RAM node
is (:mod:`repro.vptree.search`): one distance pass over every row per
node-subquery, fed by :meth:`NodeTier.pages` — each page once, in file
order, consecutive pages joined into blocks and all of the subquery's
windows scored against a block through the loop that scores a RAM node
(the walk's visit set is ~all pages at Mendel's radii, and it touched them
in tree order, many times each).  A page that is not resident costs one
seek plus its compressed bytes of transfer; the pass counts those reads and
returns them, and the node charges them once per node-subquery.  The part
path reads only the pages holding a block the system entry named
(:meth:`NodeTier.read_rows`).  Reads are not coalesced into sequential
runs.

Spilling is also a durability checkpoint: the block file carries the same
per-row CRC32 digests the WAL acknowledges, so after a spill the snapshot
and WAL are deleted and the ``NodeTier`` becomes the node's
``durable`` medium.  It answers the calls
:class:`~repro.store.durable.DurableNodeState` answers — manifest, digest,
batch verify, bit-rot injection, replay, checkpoint, status — so the
scrubber, the repair planner and crash recovery read a spilled node, live
or crashed, without knowing which medium holds its bytes.  Replay returns
only rows that match their acknowledged digest, so a page that rotted
while its node was down is restored from a replica, never zero-filled.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.tier import blockfile
from repro.store.durable import RecoveredState
from repro.tier.blockfile import (
    TIER_FILE,
    BlockFileReader,
    PageRecord,
    write_block_file,
)
from repro.tier.cache import BlockCache
from repro.tier.codec import (
    METHOD_NAMES,
    TierCodecError,
    encode_page,
    page_centroid,
)
from repro.vptree.tree import VPNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import StorageNode


#: simulated seconds per cold page fetch (seek + request dispatch)
SEEK_SECONDS = 4e-3
#: simulated seconds per compressed byte read (sequential transfer plus
#: decompression; ~50 MB/s effective)
READ_SECONDS_PER_BYTE = 2e-8


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
    #: residue alphabet size (enables the 2-bit packed codec when <= 4);
    #: 0 derives it from the spilled data
    alphabet_size: int = 0

    def __post_init__(self) -> None:
        if self.page_rows < 1:
            raise ValueError(f"page_rows must be >= 1, got {self.page_rows}")
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {self.cache_bytes}")


class TieredPoints:
    """Stands in for a vp-tree's ``points`` matrix, backed by the tier's
    pages.

    A scan reads it through ``shape`` and :meth:`pages` (see
    :func:`repro.vptree.search._fill`), the part path through :meth:`take`;
    nothing writes it, since every writer folds the node back to RAM
    first.  Coercing it with ``np.asarray`` materialises the same
    ``uint8`` bytes the RAM matrix held, straight from the device
    (:meth:`NodeTier.materialize`)."""

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

    def pages(self) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
        return self._tier.pages()

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, int, int]:
        return self._tier.read_rows(rows)

    def __array__(self, dtype=None, copy=None):
        # Explicit materialisation (never on the query path; it exists so
        # accidental coercion stays *correct*).
        full = self._tier.materialize()
        return full if dtype is None else full.astype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredPoints(shape={self.shape}, tier={self._tier.node_id!r})"


def _chunks(values, size: int):
    for start in range(0, len(values), size):
        yield values[start : start + size]


class NodeTier:
    """One node's tier state: block file, pinned vantage pages, and the
    page and slot of each block's row.  It serves searches while it is
    ``node.tier``, and is ``node.durable`` from a successful :meth:`spill`
    until :meth:`discard`, crashes included."""

    def __init__(
        self, node: "StorageNode", cache: BlockCache, config: TierConfig
    ) -> None:
        self.node = node
        self.node_id = node.node_id
        self.cache = cache
        self.config = config
        self.row_count = 0
        self.width = int(node.tree.points.shape[1])
        self.reader: BlockFileReader | None = None
        self._page_rows: list[np.ndarray] = []
        self._pinned_arrays: dict[int, np.ndarray] = {}
        self._row_of_block: dict[int, tuple[int, int]] = {}
        #: page -> the disk generation its cached copy was decoded at
        self._cached_at: dict[int, int] = {}
        # Lifetime device traffic for the tier-cache dashboard panel (what
        # a search is charged is returned by its own pass, not read here).
        self._io_lock = threading.Lock()
        self.total_seeks = 0
        self.total_bytes = 0

    # -- spill -----------------------------------------------------------------

    def spill(self) -> bool:
        """Move the node's block codes to disk, leaving the tree structure
        (and all simulated-search behaviour) untouched; ``False`` when the
        node holds nothing to spill."""
        tree = self.node.tree
        if tree.root is None or tree.points.shape[0] == 0:
            return False
        points = np.ascontiguousarray(tree.points, dtype=np.uint8)
        n, width = points.shape
        self.width = width
        alphabet_size = self.config.alphabet_size or max(
            2, int(points.max(initial=0)) + 1
        )

        vantages: list[int] = []
        stack: list[VPNode] = [tree.root]
        while stack:
            vertex = stack.pop()
            if not vertex.is_leaf:
                vantages.append(int(vertex.vantage_index))
                stack += [s for s in (vertex.right, vertex.left) if s is not None]

        data = np.setdiff1d(np.arange(n), vantages)
        data = data[np.argsort(np.asarray(tree.payloads)[data], kind="stable")]
        page_rows = list(_chunks(data, self.config.page_rows))
        data_pages = len(page_rows)
        for chunk in _chunks(vantages, self.config.page_rows):
            page_rows.append(np.asarray(chunk, dtype=np.intp))

        records: list[PageRecord] = []
        for rows_idx in page_rows:
            rows = points[rows_idx]
            centroid = page_centroid(rows, alphabet_size)
            method, payload = encode_page(rows, centroid, alphabet_size)
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
                )
            )

        write_block_file(self.node.disk, width, alphabet_size, records)
        self.reader = BlockFileReader(self.node.disk)
        self.row_count = n
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

        tree.points = TieredPoints(self)
        if hasattr(tree, "_storage"):
            del tree._storage
        return True

    # -- reads -----------------------------------------------------------------

    def pages(self) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
        """Every page once, in file order, as ``(tree rows, codes, cold
        bytes)``: the feed of a scan's distance pass (:meth:`_read`)."""
        for index, codes, cold_bytes in self._read(range(len(self._page_rows))):
            yield self._page_rows[index], codes, cold_bytes

    def read_rows(self, rows: np.ndarray) -> tuple[np.ndarray, int, int]:
        """The codes of the tree rows *rows*, and the pages that had to
        come from the device and their compressed bytes: each row's block
        is found in the page and slot it was spilled to, and only the pages
        holding one are read, each once (:meth:`_read`) — the resident ones
        first, so that the pass's own admissions cannot evict one before
        it is taken, then the rest in file order."""
        payloads = self.node.tree.payloads
        page, slot = np.array(
            [self._row_of_block[payloads[row]] for row in rows.tolist()],
            dtype=np.intp).reshape(-1, 2).T
        order = np.argsort(page, kind="stable")
        pages, starts = np.unique(page[order], return_index=True)
        rows_of = dict(zip(pages.tolist(), np.split(order, starts[1:])))
        cold = [not (index in self._pinned_arrays or self.cache.contains(
            (self.node_id, index))) for index in rows_of]
        codes = np.empty((len(rows), self.width), dtype=np.uint8)
        reads = nbytes = 0
        for index, found, cold_bytes in self._read(
                [index for _, index in sorted(zip(cold, rows_of))]):
            at = rows_of[index]
            codes[at] = found[slot[at]]
            reads += cold_bytes > 0
            nbytes += cold_bytes
        return codes, reads, nbytes

    def _read(self, indices) -> Iterator[tuple[int, np.ndarray, int]]:
        """Pages *indices*, in the order given, each as ``(index, codes,
        cold bytes)``.  Vantage pages are always resident.  A data page comes
        from the shared cache or, failing that, from the device — then
        ``cold bytes`` is the compressed length read (else 0).

        A pass is one lap of a looping scan, LRU's worst case: left to
        admit every page it reads, a pass longer than the cache would
        flush it with its own tail, which the next lap wants last.  So a
        pass offers its cold pages to the cache while there is free room,
        takes one more slot from the LRU end (which lets the resident set
        follow the workload), and leaves the rest as it found it.

        A payload that fails to decode yields placeholder rows, still paid
        for and never cached: the search surfaces no verified hit from them
        and the scrubber quarantines the real bytes."""
        cache, admit = self.cache, True
        for index in indices:
            codes = self._pinned_arrays.get(index)
            cold_bytes = 0
            if codes is None:
                key = (self.node_id, index)
                codes = cache.get(key)
            if codes is None:
                cold_bytes = self.reader.pages[index].length
                with self._io_lock:
                    self.total_seeks += 1
                    self.total_bytes += cold_bytes
                try:
                    codes = self.reader.read_page(index)
                except TierCodecError:
                    codes = self._undecodable(index)
                else:
                    room = cache.capacity_bytes - cache.resident_bytes
                    if admit and cache.put(key, codes):
                        admit = codes.nbytes <= room  # else: its one eviction
                        self._cached_at[index] = self.node.disk.generation
            yield index, codes, cold_bytes

    def decoded(self, index: int) -> np.ndarray:
        """Page *index* without touching the cache or the I/O tally (the
        control-plane read behind :meth:`materialize`)."""
        pinned = self._pinned_arrays.get(index)
        if pinned is not None:
            return pinned
        try:
            return self.reader.read_page(index)
        except TierCodecError:
            return self._undecodable(index)

    def _undecodable(self, index: int) -> np.ndarray:
        return np.zeros((self.reader.pages[index].rows, self.width), dtype=np.uint8)

    def io_seconds(self, seeks: int, nbytes: int) -> float:
        """Simulated device time for *seeks* cold fetches totalling
        *nbytes* compressed bytes (not scaled by CPU speed — this is the
        storage device, not the node's processor)."""
        return seeks * SEEK_SECONDS + nbytes * READ_SECONDS_PER_BYTE

    # -- the durable medium ----------------------------------------------------

    def manifest_ids(self) -> list[int]:
        """Insertion-ordered block manifest, read from the on-disk table
        (answers even for a crashed process — the disk survives)."""
        return blockfile.manifest_ids(self.node.disk)

    def digest(self, block_id: int) -> int | None:
        location = self._row_of_block.get(block_id)
        if location is None:
            return None
        page, slot = location
        return self.reader.pages[page].digests[slot]

    def verify_many(self, block_ids) -> list[bool | None]:
        """Per id, whether its row still matches its acknowledged digest in
        the device's *current* bytes (``None`` when the file holds no such
        row).  Each page the ids fall in is read once: from the cache when
        its copy there was decoded at the disk's current generation (so
        from the same bytes), else decoded fresh from the device."""
        found: list[bool | None] = [None] * len(block_ids)
        slots_of: dict[int, list[tuple[int, int]]] = {}
        for at, block_id in enumerate(block_ids):
            location = self._row_of_block.get(block_id)
            if location is not None:
                page, slot = location
                slots_of.setdefault(page, []).append((at, slot))
        for page, wanted in slots_of.items():
            slots, key = [slot for _, slot in wanted], (self.node_id, page)
            # A page cached at another generation, or no longer, is not read.
            codes = (self.cache.get(key) if self.cache.contains(key) and
                     self._cached_at.get(page) == self.node.disk.generation else None)
            digests = self.reader.pages[page].digests
            rows = (self.reader.verify_rows(page, slots) if codes is None else
                    [zlib.crc32(codes[s].tobytes()) == digests[s] for s in slots])
            for (at, _), ok in zip(wanted, rows):
                found[at] = ok
        return found

    def corrupt_block(self, block_id: int, bit: int = 0) -> None:
        """Bit-rot injection for tests/chaos: flip one bit inside the page
        payload holding *block_id* (mirrors ``DurableNodeState.corrupt_block``;
        :class:`KeyError` when the file holds no such block)."""
        page, _slot = self._row_of_block[block_id]
        meta = self.reader.pages[page]
        offset = self.reader._payload_base + meta.offset + meta.length // 2
        self.node.disk.flip_bit(TIER_FILE, offset, bit)
        # Cached copies predate the flip; drop them so reads see the device.
        self.cache.drop_node(self.node_id)

    def replay(self) -> RecoveredState:
        """The verified block set in insertion order, parsed fresh from the
        device (RAM row maps not trusted).  A row is kept only when its
        page decodes and its CRC32 equals the acknowledged digest, the way
        a WAL replay drops a record failing its CRC; the rows dropped are
        counted in ``crc_errors``, and re-replication restores them from a
        healthy replica.  A file failing its metadata checks replays like
        a snapshot failing its CRC: empty, ``snapshot_corrupt`` set."""
        try:
            reader = BlockFileReader(self.node.disk)
        except (blockfile.TierFileError, FileNotFoundError):
            return RecoveredState(snapshot_corrupt=True)
        by_block: dict[int, np.ndarray] = {}
        for index, meta in enumerate(reader.pages):
            try:
                rows = reader.read_page(index)
            except TierCodecError:
                continue
            for row, block_id, digest in zip(rows, meta.block_ids, meta.digests):
                if zlib.crc32(row.tobytes()) == digest:
                    by_block[block_id] = row
        block_ids = [b for b in reader.manifest if b in by_block]
        codes = (
            np.stack([by_block[b] for b in block_ids])
            if block_ids
            else np.empty((0, reader.width), dtype=np.uint8)
        )
        return RecoveredState(
            block_ids=block_ids, codes=codes, tier_blocks=len(block_ids),
            crc_errors=reader.row_count - len(block_ids),
        )

    def checkpoint(self) -> bool:
        """Nothing to fold: every row is in the file since :meth:`spill`."""
        return True

    def status(self) -> dict:
        """``DurableNodeState.status``'s frame: no WAL, no snapshot."""
        disk = self.node.disk
        return dict(
            blocks=len(self.manifest_ids()), wal_records=0, snapshot_blocks=0,
            unacked_writes=0, torn_records=0, crc_errors=0,
            snapshot_corrupt=False, disk_bytes=disk.used_bytes,
            disk_full=disk.full,
        )

    # -- lifecycle -------------------------------------------------------------

    def materialize(self) -> np.ndarray:
        """The full ``(n, width)`` codes matrix in tree-row order, read
        from pinned pages and the device (no cache churn, no simulated I/O
        — spill/unspill are control-plane moves, not query service)."""
        codes = np.empty((self.row_count, self.width), dtype=np.uint8)
        for index, rows in enumerate(self._page_rows):
            codes[rows] = self.decoded(index)
        return codes

    def discard(self) -> None:
        """Tear the tier down completely (unspill, placement reset,
        recovery): cache entries dropped, block file deleted."""
        self.cache.drop_node(self.node_id)
        self.node.disk.delete(TIER_FILE)

    # -- reporting -------------------------------------------------------------

    def occupancy(self) -> dict:
        """Tier occupancy report for one node."""
        on_disk = self.node.disk.size(TIER_FILE)
        raw = self.reader.raw_bytes
        pinned = sum(arr.nbytes for arr in self._pinned_arrays.values())
        resident = pinned + self.cache.resident_bytes_for(self.node_id)
        return {
            "active": self.node.tier is self,
            "pages": len(self._page_rows),
            "pinned_pages": len(self._pinned_arrays),
            "rows": self.row_count,
            "bytes_on_disk": on_disk,
            "raw_bytes": raw,
            "pinned_bytes": pinned,
            "resident_bytes": resident,
            "compression_ratio": raw / on_disk if on_disk else 0.0,
            "resident_fraction": resident / raw if raw else 0.0,
            "cold_read_seeks": self.total_seeks,
            "cold_read_bytes": self.total_bytes,
            "codec_pages": dict(Counter(
                METHOD_NAMES.get(meta.method, str(meta.method))
                for meta in self.reader.pages
            )),
        }
