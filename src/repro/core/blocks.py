"""Inverted-index blocks (paper section V-A.1).

A block is a fixed-length segment of a reference sequence produced by a
stride-1 sliding window — "the basic unit of computation and storage in the
system".  Each block carries the metadata the query path needs: owning
sequence id, start/end positions, and references to the previous/next block
(used to lengthen anchors during extension).

Blocks do not copy residues: their ``codes`` are views into the owning
record's code array, held by the :class:`BlockStore` — which also keeps all
records' codes end to end, so the codes of many blocks are one gather.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.seq.records import SequenceRecord, SequenceSet


@dataclass(frozen=True)
class InvertedIndexBlock:
    """Metadata of one indexed segment.

    ``prev_id``/``next_id`` are block ids (or ``-1`` at sequence ends) — the
    neighbour references of section V-A.1.
    """

    block_id: int
    seq_id: str
    start: int
    end: int
    prev_id: int
    next_id: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty block span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


class BlockStore:
    """All blocks of a database plus id-based lookup and code access.

    The store is the reproduction's stand-in for the distributed block
    storage: every node can resolve a block id; the *placement* of blocks on
    nodes (and the cost of remote access) is handled by the cluster layer.
    """

    def __init__(self, database: SequenceSet, segment_length: int) -> None:
        if segment_length < 2:
            raise ValueError(f"segment_length must be >= 2, got {segment_length}")
        self.database = database
        self.segment_length = int(segment_length)
        self.blocks: list[InvertedIndexBlock] = []
        self._record_of_block: list[SequenceRecord] = []
        self._range_of_seq: dict[str, tuple[int, int]] = {}
        #: the codes of every record holding a block, end to end; where in
        #: them each block starts, and where its record begins and ends
        self._flat = bytearray()
        self._flat_start = array("q")
        self._flat_record = array("q")
        self._flat_record_end = array("q")
        for record in database:
            self._ingest(record)

    def _ingest(self, record: SequenceRecord) -> None:
        w = self.segment_length
        length = len(record)
        if length < w:
            # Sequences shorter than one window contribute no blocks; real
            # reference sets contain a few of these and Mendel simply cannot
            # seed in them (same limitation as word-based tools).
            self._range_of_seq[record.seq_id] = (len(self.blocks), len(self.blocks))
            return
        first_id = len(self.blocks)
        count = length - w + 1  # stride-1 windows (the paper counts "L - k")
        for offset in range(count):
            block_id = first_id + offset
            self.blocks.append(
                InvertedIndexBlock(
                    block_id=block_id,
                    seq_id=record.seq_id,
                    start=offset,
                    end=offset + w,
                    prev_id=block_id - 1 if offset > 0 else -1,
                    next_id=block_id + 1 if offset < count - 1 else -1,
                )
            )
            self._record_of_block.append(record)
        self._range_of_seq[record.seq_id] = (first_id, first_id + count)
        lo = len(self._flat)
        self._flat_start.extend(range(lo, lo + count))
        self._flat_record.extend(array("q", [lo]) * count)
        self._flat_record_end.extend(array("q", [lo + length]) * count)
        self._flat += record.codes.tobytes()

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def block(self, block_id: int) -> InvertedIndexBlock:
        if not 0 <= block_id < len(self.blocks):
            raise KeyError(f"no block with id {block_id}")
        return self.blocks[block_id]

    def codes_of(self, block_id: int) -> np.ndarray:
        """Residue codes of a block (a view into the owning record)."""
        block = self.block(block_id)
        return self._record_of_block[block_id].codes[block.start : block.end]

    def record_of(self, block_id: int) -> SequenceRecord:
        self.block(block_id)  # bounds check
        return self._record_of_block[block_id]

    def blocks_of_sequence(self, seq_id: str) -> Iterator[InvertedIndexBlock]:
        first, last = self._range_of_seq[seq_id]
        return iter(self.blocks[first:last])

    def _ids(self, block_ids: list[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(block_ids, dtype=np.intp)
        unknown = ids[(ids < 0) | (ids >= len(self.blocks))]
        if unknown.size:
            raise KeyError(f"no block with id {unknown[0]}")
        return ids

    def codes_matrix(self, block_ids: list[int] | np.ndarray) -> np.ndarray:
        """Stack the codes of many blocks into an ``(n, w)`` matrix (one
        gather from the flat code array)."""
        starts = np.frombuffer(self._flat_start, dtype=np.int64)[self._ids(block_ids)]
        return self.flat_codes()[starts[:, None] + np.arange(self.segment_length)]

    def flat_codes(self) -> np.ndarray:
        """Every block-holding record's codes, end to end (a read-only view)."""
        return np.frombuffer(self._flat, dtype=np.uint8)

    def flat_spans(
        self, block_ids: list[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where blocks sit in :meth:`flat_codes`: each block's start, and
        where its record begins and ends, as three ``(n,)`` arrays."""
        ids = self._ids(block_ids)
        return tuple(
            np.frombuffer(column, dtype=np.int64)[ids]
            for column in (self._flat_start, self._flat_record, self._flat_record_end)
        )

    def block_key(self, block_id: int) -> bytes:
        """Stable byte key used for tier-2 SHA-1 placement."""
        block = self.block(block_id)
        return f"{block.seq_id}:{block.start}".encode()

