"""The on-disk columnar block file (``MTBF``: Mendel Tiered Block File).

One file per spilled node on its :class:`~repro.store.disk.NodeDisk`,
reusing the container conventions of the ``MENDELIX`` archive and the
durable snapshot (:mod:`repro.core.persist`, :mod:`repro.store.durable`):
a fixed magic + version header, a CRC32 over the segment table, and
per-row CRC32 digests so silent bit rot is caught by the same
verified-read discipline the WAL uses.

Layout (version 2)::

    +--------------------------------------------------+
    | header: magic "MTBF", version, table crc/length, |  _HEAD
    |         row-meta length, digest length           |
    +--------------------------------------------------+
    | segment table (zlib-compressed JSON)             |
    |   row width, alphabet size, row count            |
    |   per page: payload offset/length, codec method, |
    |     row count, centroid                          |
    |   row-meta and digest section CRC32s             |
    +--------------------------------------------------+
    | row meta (zlib): u32 tree rows ++ u64 block ids, |
    |   both in page order                             |
    +--------------------------------------------------+
    | digests: raw u32 row CRC32s, in page order       |
    +--------------------------------------------------+
    | page payloads, concatenated                      |
    +--------------------------------------------------+

Every field has a reader: the codec decodes a page against its centroid,
recovery rebuilds the manifest from the tree rows and block ids, and
verified reads, scrubs and replay check rows against the digests.  The
metadata sections parse without touching a payload byte, so opening a
file — or auditing a *dead* node's manifest — never reads page data.
Per-row bookkeeping (tree row, block id, digest) lives in packed binary
sections rather than the JSON table: at the segment widths this index
runs (8–32 residues per row), JSON-encoded per-row integers would cost
more than the rows themselves and sink the compression ratio the tier
exists to deliver.  Payload offsets are relative to the end of the digest
section, and every page read is an independent ``read_span`` (one
simulated seek), never a whole-file load.

Block files live only on a node's in-memory disk and are never archived,
so the reader accepts exactly :data:`FORMAT_VERSION`.  Writes go through
:meth:`NodeDisk.write_atomic`: a crash mid-spill leaves the previous file
(or no file) intact, mirroring the snapshot contract.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.store.disk import NodeDisk
from repro.tier.codec import TierCodecError, decode_page

MAGIC = b"MTBF"
FORMAT_VERSION = 2

#: the block file's name on the node's disk
TIER_FILE = "tier"

# magic, version, table crc32, table length, row-meta (compressed) length,
# digest section length
_HEAD = struct.Struct("<4sHIIII")


class TierFileError(Exception):
    """The block file failed an integrity check (magic, version, CRC) or
    its segment table failed to parse."""


@dataclass
class PageRecord:
    """One page as written: compressed payload plus its row bookkeeping.

    ``digests`` are CRC32s of each row's raw codes — the same
    ``zlib.crc32(codes.tobytes())`` formula
    :class:`~repro.store.durable.DurableNodeState` acknowledges, so a
    spilled replica and a WAL-resident replica of the same block vote with
    identical digests during anti-entropy scrubs.  ``tree_rows`` are the
    vp-tree row indices of the page's rows (tree row order *is* insertion
    order, so recovery can rebuild the manifest from the file alone).
    """

    payload: bytes
    method: int
    rows: int
    block_ids: list[int]
    tree_rows: list[int]
    digests: list[int]
    centroid: list[int]
    offset: int = field(default=0)  # assigned at write time

    def to_table_entry(self) -> dict:
        return {
            "offset": self.offset,
            "length": len(self.payload),
            "method": self.method,
            "rows": self.rows,
            "centroid": self.centroid,
        }


def write_block_file(
    disk: NodeDisk, width: int, alphabet_size: int, pages: list[PageRecord]
) -> int:
    """Serialise *pages* to :data:`TIER_FILE` on *disk* atomically;
    returns the file size in bytes."""
    offset = 0
    for page in pages:
        page.offset = offset
        offset += len(page.payload)
    tree_rows = np.array(
        [r for page in pages for r in page.tree_rows], dtype=np.uint32
    )
    block_ids = np.array(
        [b for page in pages for b in page.block_ids], dtype=np.uint64
    )
    digest_bytes = np.array(
        [d for page in pages for d in page.digests], dtype=np.uint32
    ).tobytes()
    rowmeta = zlib.compress(tree_rows.tobytes() + block_ids.tobytes(), 6)
    table = {
        "width": int(width),
        "alphabet_size": int(alphabet_size),
        "row_count": int(tree_rows.size),
        "rowmeta_crc": zlib.crc32(rowmeta),
        "digests_crc": zlib.crc32(digest_bytes),
        "pages": [page.to_table_entry() for page in pages],
    }
    table_bytes = zlib.compress(json.dumps(table, sort_keys=True).encode(), 6)
    head = _HEAD.pack(
        MAGIC,
        FORMAT_VERSION,
        zlib.crc32(table_bytes),
        len(table_bytes),
        len(rowmeta),
        len(digest_bytes),
    )
    payload = b"".join(page.payload for page in pages)
    data = head + table_bytes + rowmeta + digest_bytes + payload
    disk.write_atomic(TIER_FILE, data)
    return len(data)


@dataclass
class PageMeta:
    """One page's table entry as parsed back from disk."""

    index: int
    offset: int
    length: int
    method: int
    rows: int
    block_ids: list[int]
    tree_rows: list[int]
    digests: list[int]
    centroid: np.ndarray


class BlockFileReader:
    """Random-access reader over one node's block file.

    Parsing validates magic, version, and each metadata section's CRC
    before trusting a byte of it; page payloads are *not* verified at open
    — each decode is checked lazily (and :meth:`verify_rows` re-reads the
    payload from the device, so a scrub observes the current on-disk bytes
    rather than any cached copy)."""

    def __init__(self, disk: NodeDisk) -> None:
        self.disk = disk
        head_raw = disk.read_span(TIER_FILE, 0, _HEAD.size)
        if len(head_raw) < _HEAD.size:
            raise TierFileError(
                f"{TIER_FILE!r} is {len(head_raw)} bytes — shorter than the header"
            )
        magic, version, table_crc, table_len, rowmeta_len, digests_len = (
            _HEAD.unpack(head_raw)
        )
        if magic != MAGIC:
            raise TierFileError(f"{TIER_FILE!r} is not a tier block file ({magic!r})")
        if version != FORMAT_VERSION:
            raise TierFileError(
                f"{TIER_FILE!r} uses block-file version {version}; this build "
                f"reads {FORMAT_VERSION}"
            )
        table_bytes = disk.read_span(TIER_FILE, _HEAD.size, table_len)
        if len(table_bytes) != table_len or zlib.crc32(table_bytes) != table_crc:
            raise TierFileError(f"{TIER_FILE!r} segment table failed its checksum")
        # A table can pass its CRC and still be malformed (not an object,
        # a missing key, a wrong-typed value): every way it fails to parse
        # is a TierFileError, so manifest_ids() can claim nothing for it.
        try:
            table = json.loads(zlib.decompress(table_bytes).decode())
            self.width = int(table["width"])
            self.alphabet_size = int(table["alphabet_size"])
            self.row_count = int(table["row_count"])
            rowmeta_crc = int(table["rowmeta_crc"])
            digests_crc = int(table["digests_crc"])
            self.pages = [
                PageMeta(
                    index=i,
                    offset=int(entry["offset"]),
                    length=int(entry["length"]),
                    method=int(entry["method"]),
                    rows=int(entry["rows"]),
                    block_ids=[],
                    tree_rows=[],
                    digests=[],
                    centroid=np.array(entry["centroid"], dtype=np.uint8),
                )
                for i, entry in enumerate(table["pages"])
            ]
        except (zlib.error, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TierFileError(
                f"{TIER_FILE!r} segment table failed to parse: {exc}"
            ) from exc
        # Well-typed but inconsistent framing: every page decodes against
        # a centroid one row wide, under an alphabet a byte can hold.
        if not 1 <= self.alphabet_size <= 256:
            raise TierFileError(
                f"{TIER_FILE!r} segment table holds alphabet size "
                f"{self.alphabet_size}, outside 1..256"
            )
        for meta in self.pages:
            if meta.centroid.shape != (self.width,):
                raise TierFileError(
                    f"{TIER_FILE!r} page {meta.index} centroid holds "
                    f"{meta.centroid.size} codes for width {self.width}"
                )

        rowmeta_raw = disk.read_span(TIER_FILE, _HEAD.size + table_len, rowmeta_len)
        if (
            len(rowmeta_raw) != rowmeta_len
            or zlib.crc32(rowmeta_raw) != rowmeta_crc
        ):
            raise TierFileError(f"{TIER_FILE!r} row-meta section failed its checksum")
        try:
            rowmeta = zlib.decompress(rowmeta_raw)
        except zlib.error as exc:
            raise TierFileError(
                f"{TIER_FILE!r} row-meta section failed to decompress: {exc}"
            ) from exc
        n = self.row_count
        if len(rowmeta) != 4 * n + 8 * n:
            raise TierFileError(
                f"{TIER_FILE!r} row-meta section holds {len(rowmeta)} bytes "
                f"for {n} rows"
            )
        tree_rows = np.frombuffer(rowmeta[: 4 * n], dtype=np.uint32)
        block_ids = np.frombuffer(rowmeta[4 * n :], dtype=np.uint64)
        digest_raw = disk.read_span(
            TIER_FILE, _HEAD.size + table_len + rowmeta_len, digests_len
        )
        if (
            len(digest_raw) != digests_len
            or zlib.crc32(digest_raw) != digests_crc
        ):
            raise TierFileError(f"{TIER_FILE!r} digest section failed its checksum")
        digests = np.frombuffer(digest_raw, dtype=np.uint32)
        if digests.size != n:
            raise TierFileError(
                f"{TIER_FILE!r} digest section holds {digests.size} digests "
                f"for {n} rows"
            )

        self._payload_base = _HEAD.size + table_len + rowmeta_len + digests_len
        cursor = 0
        for meta in self.pages:
            stop = cursor + meta.rows
            meta.block_ids = [int(b) for b in block_ids[cursor:stop]]
            meta.tree_rows = [int(r) for r in tree_rows[cursor:stop]]
            meta.digests = [int(d) for d in digests[cursor:stop]]
            cursor = stop
        if cursor != n:
            raise TierFileError(
                f"{TIER_FILE!r} pages cover {cursor} rows, table says {n}"
            )
        # Tree row order is insertion order, so the durable manifest is the
        # block ids sorted by their tree row.
        order = np.argsort(tree_rows, kind="stable")
        self.manifest = [int(b) for b in block_ids[order]]

    # -- reads -----------------------------------------------------------------

    def page_payload(self, index: int) -> bytes:
        """The page's compressed payload, fresh from the device."""
        meta = self.pages[index]
        return self.disk.read_span(
            TIER_FILE, self._payload_base + meta.offset, meta.length
        )

    def read_page(self, index: int) -> np.ndarray:
        """Decode page *index* to its ``(rows, width)`` matrix.  Raises
        :class:`~repro.tier.codec.TierCodecError` on payload damage."""
        meta = self.pages[index]
        return decode_page(
            meta.method,
            self.page_payload(index),
            meta.rows,
            self.width,
            meta.centroid,
            self.alphabet_size,
        )

    def verify_rows(self, index: int, slots: list[int]) -> list[bool]:
        """Digest-verify rows of page *index* against the table's
        acknowledged CRCs, reading the payload fresh from the device once
        (scrub semantics); a page that fails to decode fails every row."""
        meta = self.pages[index]
        try:
            rows = self.read_page(index)
        except TierCodecError:
            return [False] * len(slots)
        return [zlib.crc32(rows[slot].tobytes()) == meta.digests[slot]
                for slot in slots]

    @property
    def bytes_on_disk(self) -> int:
        return self.disk.size(TIER_FILE)

    @property
    def raw_bytes(self) -> int:
        return self.row_count * self.width


def manifest_ids(disk: NodeDisk) -> list[int]:
    """The insertion-ordered block manifest, read from metadata alone.

    Used for repair planning against *dead* nodes: the process is gone but
    its disk still records what it held.  Returns ``[]`` when the file is
    missing or fails its integrity checks (an unreadable manifest claims
    nothing, and the scrubber treats those blocks like lost replicas)."""
    if not disk.exists(TIER_FILE):
        return []
    try:
        return BlockFileReader(disk).manifest
    except (TierFileError, FileNotFoundError):
        return []
