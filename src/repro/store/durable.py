"""Crash-consistent durable state for one storage node: snapshot + WAL.

The durable representation of a node's holdings lives on its
:class:`~repro.store.disk.NodeDisk` as two files:

``snapshot``
    A checksummed, format-versioned image of the full block set at the last
    checkpoint: magic ``MSNP``, a format version, a whole-body CRC32, then
    ``(block_id, content digest, codes)`` entries in insertion order.
    Written with :meth:`NodeDisk.write_atomic` (tmp + rename), so a crash
    mid-checkpoint leaves the previous snapshot intact.

``wal``
    An append-only log of everything since that checkpoint.  Each record is
    framed ``[u32 length][u32 crc32(payload)][payload]``; the payload is an
    insert (op, block id, content digest, codes).  Nothing journals a drop:
    a node drops blocks by rebuilding its durable state
    (``StorageNode.drop_blocks``).  A record of any other op replays as
    damage and counts in ``crc_errors``.
    Replay truncates a torn tail — an incomplete frame, or a CRC-failing
    *final* record — exactly as journalled filesystems do; a CRC failure in
    the *middle* of the log is bit rot, not a torn write, so the record is
    applied anyway and counted (content-digest verification flags the block
    at scrub or read time).

The **content digest** (CRC32 of the codes) is computed once, when the
insert is acknowledged, and carried verbatim through checkpoints — a
checkpoint must not re-certify bytes it merely copied.  Silent corruption
is therefore always detectable as ``crc32(payload) != digest`` no matter
how many snapshot cycles it survived.

Acknowledgement contract: :meth:`append_insert` returns ``True`` only once
the record is fully on the device.  A torn or refused write returns
``False`` and the caller must treat the operation as not durable (the
cluster layer re-replicates from peers after restart).

A spilled node's block file (:class:`~repro.tier.store.NodeTier`) is the
other durable medium and answers the same read calls.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.store.disk import NodeDisk, StoreError

SNAPSHOT_MAGIC = b"MSNP"
SNAPSHOT_VERSION = 1
SNAPSHOT_FILE = "snapshot"
WAL_FILE = "wal"

#: WAL records accumulated before an automatic checkpoint folds them into a
#: fresh snapshot (bounds replay time on long-lived nodes).
WAL_CHECKPOINT_THRESHOLD = 512

_FRAME = struct.Struct("<II")           # record length, payload crc32
_INSERT_HEAD = struct.Struct("<BqII")   # op, block_id, digest, codes length
_SNAP_HEAD = struct.Struct("<4sHI")     # magic, version, body crc32
_SNAP_ENTRY = struct.Struct("<qII")     # block_id, digest, codes length

_OP_INSERT = 1


def _well_formed(payload: bytes) -> bool:
    """Whether *payload* holds an op byte and, for an insert, its header."""
    return bool(payload) and (
        payload[0] != _OP_INSERT or len(payload) >= _INSERT_HEAD.size
    )


@dataclass(frozen=True)
class _Extent:
    """Where one block's durable codes live right now."""

    digest: int
    file: str
    offset: int
    length: int


@dataclass
class RecoveredState:
    """What a replay reconstructed, plus what it had to repair or flag.
    A block file's replay counts the rows it kept in ``tier_blocks``
    (= ``blocks``) and, in ``crc_errors``, the rows it dropped because
    their page failed to decode or their CRC32 missed the acknowledged
    digest; a medium failing its whole-file check replays empty,
    ``snapshot_corrupt``."""

    block_ids: list[int] = field(default_factory=list)
    codes: np.ndarray | None = None
    snapshot_blocks: int = 0
    wal_records: int = 0
    torn_records: int = 0
    crc_errors: int = 0
    snapshot_corrupt: bool = False
    tier_blocks: int = 0

    def to_dict(self) -> dict:
        return {
            "blocks": len(self.block_ids),
            "snapshot_blocks": self.snapshot_blocks,
            "wal_records": self.wal_records,
            "torn_records": self.torn_records,
            "crc_errors": self.crc_errors,
            "snapshot_corrupt": self.snapshot_corrupt,
            "tier_blocks": self.tier_blocks,
        }


class DurableNodeState:
    """Snapshot + WAL for one node, materialised lazily from disk bytes.

    All reads go through a materialised index of the *actual device
    contents* (invalidated by the disk's generation counter), so fault
    injection on the device — bit flips, torn tails — is observed exactly
    the way recovery and scrubbing would observe it.
    """

    def __init__(
        self,
        disk: NodeDisk,
        node_id: str,
        checkpoint_threshold: int = WAL_CHECKPOINT_THRESHOLD,
    ) -> None:
        self.disk = disk
        self.node_id = node_id
        self.checkpoint_threshold = checkpoint_threshold
        #: appends that failed acknowledgement since the last clean flush
        self.unacked_writes = 0
        self._extents: dict[int, _Extent] = {}
        self._cache_gen = -1
        self._wal_records = 0
        self._snapshot_blocks = 0
        self._torn_records = 0
        self._crc_errors = 0
        self._snapshot_corrupt = False

    # -- the write path --------------------------------------------------------

    def append_insert(self, block_id: int, codes: np.ndarray) -> bool:
        """Log one block insert; returns ``True`` once durably on disk."""
        # Start from a valid view of the device: the incremental cache
        # update below is only sound on top of a materialised extent map
        # (a checkpoint or failed append leaves the cache invalidated).
        self._materialize()
        payload_bytes = np.ascontiguousarray(codes, dtype=np.uint8).tobytes()
        digest = zlib.crc32(payload_bytes)
        payload = _INSERT_HEAD.pack(
            _OP_INSERT, block_id, digest, len(payload_bytes)
        ) + payload_bytes
        offset_in_record = _FRAME.size + _INSERT_HEAD.size
        if not self._append_record(payload):
            return False
        # Incremental cache update: the codes extent starts right after the
        # frame + insert header of the record we just wrote.
        record_start = self.disk.size(WAL_FILE) - _FRAME.size - len(payload)
        self._extents.pop(block_id, None)
        self._extents[block_id] = _Extent(
            digest=digest,
            file=WAL_FILE,
            offset=record_start + offset_in_record,
            length=len(payload_bytes),
        )
        self._wal_records += 1
        self._cache_gen = self.disk.generation
        if self._wal_records >= self.checkpoint_threshold:
            self.checkpoint()
        return True

    def _append_record(self, payload: bytes) -> bool:
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        try:
            self.disk.append(WAL_FILE, frame + payload)
        except StoreError:
            self.unacked_writes += 1
            self._cache_gen = -1  # a torn prefix may be on disk
            return False
        return True

    def checkpoint(self) -> bool:
        """Fold the WAL into a fresh atomic snapshot; ``True`` on success.

        Payloads are copied from the device byte-for-byte with their
        *original* digests — checkpointing never re-certifies content, so
        corruption stays detectable across snapshot cycles.  Failure (torn
        tmp file, full disk) leaves the previous snapshot and the WAL
        untouched.
        """
        self._materialize()
        parts = [bytearray(4)]  # count placeholder
        count = 0
        for block_id, extent in self._extents.items():
            payload = self.disk.read_span(extent.file, extent.offset,
                                          extent.length)
            parts.append(_SNAP_ENTRY.pack(block_id, extent.digest,
                                          extent.length))
            parts.append(payload)
            count += 1
        parts[0][:] = struct.pack("<I", count)
        body = b"".join(bytes(p) for p in parts)
        head = _SNAP_HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                               zlib.crc32(body))
        try:
            self.disk.write_atomic(SNAPSHOT_FILE, head + body)
            self.disk.delete(WAL_FILE)
        except StoreError:
            self.unacked_writes += 1
            self._cache_gen = -1
            return False
        # Offsets moved into the snapshot; the next reader re-materialises
        # (which also resets the WAL-record count below the threshold).
        self._cache_gen = -1
        self._wal_records = 0
        return True

    def reset(self) -> None:
        """Release all durable state (drains, rebuilds, test isolation)."""
        self.disk.delete(SNAPSHOT_FILE)
        self.disk.delete(WAL_FILE)
        self.unacked_writes = 0
        self._extents = {}
        self._cache_gen = self.disk.generation
        self._wal_records = 0
        self._snapshot_blocks = 0
        self._torn_records = 0
        self._crc_errors = 0
        self._snapshot_corrupt = False

    # -- the read path ---------------------------------------------------------

    def replay(self) -> RecoveredState:
        """Rebuild the block set strictly from device bytes (recovery).

        Returns the blocks in durable order together with the codes matrix
        decoded from the stored payloads — corrupted payloads included
        (recovery loads what the disk holds; digest verification at scrub
        or read time flags them)."""
        self._cache_gen = -1
        self._materialize()
        block_ids = list(self._extents)
        state = RecoveredState(
            block_ids=block_ids,
            snapshot_blocks=self._snapshot_blocks,
            wal_records=self._wal_records,
            torn_records=self._torn_records,
            crc_errors=self._crc_errors,
            snapshot_corrupt=self._snapshot_corrupt,
        )
        if block_ids:
            widths = {e.length for e in self._extents.values()}
            width = max(widths)
            codes = np.zeros((len(block_ids), width), dtype=np.uint8)
            for row, block_id in enumerate(block_ids):
                extent = self._extents[block_id]
                raw = self.disk.read_span(extent.file, extent.offset,
                                          extent.length)
                codes[row, : extent.length] = np.frombuffer(raw, dtype=np.uint8)
            state.codes = codes
        return state

    def manifest_ids(self) -> list[int]:
        """Block ids durably recorded, in durable (insertion) order."""
        self._materialize()
        return list(self._extents)

    def payload(self, block_id: int) -> bytes | None:
        self._materialize()
        extent = self._extents.get(block_id)
        if extent is None:
            return None
        return self.disk.read_span(extent.file, extent.offset, extent.length)

    def digest(self, block_id: int) -> int | None:
        self._materialize()
        extent = self._extents.get(block_id)
        return None if extent is None else extent.digest

    def verify_many(self, block_ids) -> list[bool | None]:
        """Per id, whether its stored payload still matches its
        acknowledged digest, or ``None`` when it has no durable record."""
        self._materialize()
        extents, read = self._extents, self.disk.read_span
        return [
            None if extent is None
            else zlib.crc32(read(extent.file, extent.offset, extent.length))
            == extent.digest
            for extent in map(extents.get, block_ids)
        ]

    def corrupt_block(self, block_id: int, bit: int = 0) -> None:
        """Fault injection: silently flip one bit of the block's on-device
        codes (``bit // 8`` indexes the byte, modulo the payload length)."""
        self._materialize()
        extent = self._extents.get(block_id)
        if extent is None:
            raise KeyError(f"{self.node_id} holds no durable block {block_id}")
        self.disk.flip_bit(
            extent.file,
            extent.offset + (bit // 8) % extent.length,
            bit % 8,
        )
        # The extent map itself is unchanged — only device bytes rotted.
        self._cache_gen = self.disk.generation

    @property
    def wal_records(self) -> int:
        self._materialize()
        return self._wal_records

    def status(self) -> dict:
        """Introspection frame for health views and the CLI."""
        self._materialize()
        return {
            "blocks": len(self._extents),
            "wal_records": self._wal_records,
            "snapshot_blocks": self._snapshot_blocks,
            "unacked_writes": self.unacked_writes,
            "torn_records": self._torn_records,
            "crc_errors": self._crc_errors,
            "snapshot_corrupt": self._snapshot_corrupt,
            "disk_bytes": self.disk.used_bytes,
            "disk_full": self.disk.full,
        }

    # -- materialisation -------------------------------------------------------

    def _materialize(self) -> None:
        if self._cache_gen == self.disk.generation:
            return
        self._extents = {}
        self._wal_records = 0
        self._snapshot_blocks = 0
        self._torn_records = 0
        self._crc_errors = 0
        self._snapshot_corrupt = False
        self._load_snapshot()
        self._replay_wal()
        self._cache_gen = self.disk.generation

    def _load_snapshot(self) -> None:
        if not self.disk.exists(SNAPSHOT_FILE):
            return
        raw = self.disk.read(SNAPSHOT_FILE)
        if len(raw) < _SNAP_HEAD.size + 4:
            self._snapshot_corrupt = True
            return
        magic, version, body_crc = _SNAP_HEAD.unpack_from(raw, 0)
        body = raw[_SNAP_HEAD.size:]
        if (
            magic != SNAPSHOT_MAGIC
            or version != SNAPSHOT_VERSION
            or zlib.crc32(body) != body_crc
        ):
            # A snapshot that fails its whole-body checksum cannot be
            # trusted at all (unlike per-record WAL rot): start empty and
            # let re-replication restore the node from its peers.
            self._snapshot_corrupt = True
            return
        (count,) = struct.unpack_from("<I", body, 0)
        cursor = 4
        for _ in range(count):
            if cursor + _SNAP_ENTRY.size > len(body):
                self._snapshot_corrupt = True
                return
            block_id, digest, length = _SNAP_ENTRY.unpack_from(body, cursor)
            cursor += _SNAP_ENTRY.size
            if cursor + length > len(body):
                self._snapshot_corrupt = True
                return
            self._extents[block_id] = _Extent(
                digest=digest,
                file=SNAPSHOT_FILE,
                offset=_SNAP_HEAD.size + cursor,
                length=length,
            )
            cursor += length
            self._snapshot_blocks += 1

    def _replay_wal(self) -> None:
        if not self.disk.exists(WAL_FILE):
            return
        raw = self.disk.read(WAL_FILE)
        cursor = 0
        while cursor < len(raw):
            record_start = cursor
            if cursor + _FRAME.size > len(raw):
                self._truncate_tail(record_start)
                return
            length, payload_crc = _FRAME.unpack_from(raw, cursor)
            cursor += _FRAME.size
            if cursor + length > len(raw):
                self._truncate_tail(record_start)
                return
            payload = raw[cursor: cursor + length]
            cursor += length
            crc_ok = zlib.crc32(payload) == payload_crc
            if not (crc_ok and _well_formed(payload)) and cursor >= len(raw):
                # A final record that fails its CRC, or passes it with no
                # room for its op's header (zero-filled bytes frame as
                # length 0, crc 0 and ``crc32(b"") == 0``): a torn write
                # whose prefix happened to frame-parse.  Truncate it away.
                self._truncate_tail(record_start)
                return
            if not crc_ok:
                # Mid-log CRC failure is bit rot, not a torn tail — the
                # record is applied and the rot surfaces through content
                # digests (scrub / verified reads).
                self._crc_errors += 1
            self._apply_record(payload, record_start)

    def _apply_record(self, payload: bytes, record_start: int) -> None:
        op = payload[0] if payload else None
        if op == _OP_INSERT and len(payload) >= _INSERT_HEAD.size:
            _op, block_id, digest, length = _INSERT_HEAD.unpack_from(payload, 0)
            self._extents.pop(block_id, None)
            self._extents[block_id] = _Extent(
                digest=digest,
                file=WAL_FILE,
                offset=record_start + _FRAME.size + _INSERT_HEAD.size,
                length=min(length, len(payload) - _INSERT_HEAD.size),
            )
            self._wal_records += 1
        else:
            self._crc_errors += 1

    def _truncate_tail(self, record_start: int) -> None:
        """Drop a torn tail from the device so later appends start clean;
        the enclosing ``_materialize`` stamps the post-truncation
        generation once the scan finishes."""
        self._torn_records += 1
        self.disk.truncate(WAL_FILE, record_start)
