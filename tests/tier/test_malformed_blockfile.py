"""Malformed MTBF block files: every failure is typed, and replay returns
only rows their acknowledged digest vouches for.

A real spilled node's block file is mutated and written back to the
node's disk.  The mutations are truncation, bit flips (biased towards the
header and segment table), header length fields inflated past the file,
splices of another node's file or of random bytes, and a version-1 header.
Whatever the mutation, :class:`BlockFileReader` raises only
:class:`TierFileError`, ``read_page`` raises only :class:`TierCodecError`,
``manifest_ids`` returns a list, and every row ``NodeTier.replay`` returns
has the CRC32 its block was acknowledged with.  Hypothesis draws the
mutations, seeded from ``CHAOS_SEED`` (the CI matrix knob).
"""

from __future__ import annotations

import json
import os
import zlib

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.scenario import build_deployment
from repro.tier import TierConfig
from repro.tier.blockfile import (
    _HEAD,
    TIER_FILE,
    BlockFileReader,
    TierFileError,
    manifest_ids,
)
from repro.tier.codec import TierCodecError

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

MUTATIONS = settings(max_examples=100, deadline=None)


class Spilled:
    """Two spilled nodes of one deployment: the victim whose file is
    mutated, the donor whose file is spliced in, and the CRC32 every
    block of the deployment was acknowledged with."""

    def __init__(self) -> None:
        mendel = build_deployment(SEED, (6, 120), group_count=1, group_size=2,
                                  replication=1)
        mendel.spill(cache_bytes=1 << 12, config=TierConfig(page_rows=16))
        self.victim, donor = mendel.index.topology.nodes
        self.original = self.victim.disk.read(TIER_FILE)
        self.donor = donor.disk.read(TIER_FILE)
        self.acknowledged = {
            block_id: zlib.crc32(mendel.index.store.codes_of(block_id).tobytes())
            for node in (self.victim, donor) for block_id in node.block_ids
        }
        head = _HEAD.unpack(self.original[: _HEAD.size])
        self.table_end = _HEAD.size + head[3]

    def check(self, blob: bytes) -> None:
        """Write *blob* as the victim's block file and hold every reader
        of it to its contract."""
        disk = self.victim.disk
        disk.write_atomic(TIER_FILE, blob)
        try:
            reader = BlockFileReader(disk)
        except TierFileError:
            pass
        else:
            for index in range(len(reader.pages)):
                try:
                    reader.read_page(index)
                except TierCodecError:
                    pass
        assert isinstance(manifest_ids(disk), list)
        replayed = self.victim.durable.replay()
        rows = [] if replayed.codes is None else replayed.codes  # corrupt file
        assert len(rows) == len(replayed.block_ids)
        for block_id, row in zip(replayed.block_ids, rows):
            assert zlib.crc32(row.tobytes()) == self.acknowledged[block_id]


@pytest.fixture(scope="module")
def spilled():
    return Spilled()


@st.composite
def offsets(draw, spilled: Spilled):
    """A byte offset into the file, half the time inside the header or
    segment table."""
    end = draw(st.sampled_from([spilled.table_end, len(spilled.original)]))
    return draw(st.integers(0, end - 1))


def test_the_unmutated_file_replays_every_row(spilled):
    spilled.check(spilled.original)
    assert len(spilled.victim.durable.replay().block_ids) == len(
        spilled.victim.block_ids
    )


@seed(SEED)
@MUTATIONS
@given(data=st.data())
def test_truncation(spilled, data):
    size = data.draw(offsets(spilled))
    spilled.check(spilled.original[:size])


@seed(SEED)
@MUTATIONS
@given(data=st.data())
def test_bit_flips(spilled, data):
    blob = bytearray(spilled.original)
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(offsets(spilled))] ^= 1 << data.draw(st.integers(0, 7))
    spilled.check(bytes(blob))


@seed(SEED)
@MUTATIONS
@given(field=st.sampled_from([3, 4, 5]), data=st.data())
def test_inflated_header_lengths(spilled, field, data):
    """Table, row-meta or digest length set beyond what the file holds."""
    head = list(_HEAD.unpack(spilled.original[: _HEAD.size]))
    head[field] = data.draw(st.integers(head[field] + 1, 2**32 - 1))
    spilled.check(_HEAD.pack(*head) + spilled.original[_HEAD.size :])


@seed(SEED)
@MUTATIONS
@given(data=st.data())
def test_splices(spilled, data):
    """A span of the file replaced by a span of another node's file (whose
    rows carry other blocks' digests) or by random bytes."""
    at = data.draw(offsets(spilled))
    cut = data.draw(st.integers(0, len(spilled.original) - at))
    donor = spilled.donor
    start = data.draw(st.integers(0, len(donor) - 1))
    piece = data.draw(st.one_of(
        st.integers(1, len(donor) - start).map(
            lambda size: donor[start : start + size]),
        st.binary(min_size=1, max_size=64),
    ))
    spilled.check(spilled.original[:at] + piece + spilled.original[at + cut :])


def test_a_version_1_file_is_refused(spilled):
    """A v1 table (which carried node, radius, histogram, raw bytes and a
    pinned flag) under a valid CRC still fails at the version check."""
    original = spilled.original
    *_, rowmeta_len, digests_len = _HEAD.unpack(original[: _HEAD.size])
    table = json.loads(zlib.decompress(original[_HEAD.size : spilled.table_end]))
    table["node"] = spilled.victim.node_id
    for entry in table["pages"]:
        entry.update(radius=0.0, histogram=[], raw_bytes=0, pinned=False)
    table_bytes = zlib.compress(json.dumps(table, sort_keys=True).encode(), 6)
    head = _HEAD.pack(b"MTBF", 1, zlib.crc32(table_bytes), len(table_bytes),
                      rowmeta_len, digests_len)
    spilled.check(head + table_bytes + original[spilled.table_end :])
    with pytest.raises(TierFileError, match="version 1"):
        BlockFileReader(spilled.victim.disk)
    assert manifest_ids(spilled.victim.disk) == []
    assert spilled.victim.durable.replay().snapshot_corrupt
