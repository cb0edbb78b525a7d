"""MTBF block-file format: round trip, manifest recovery, rot detection."""

import json
import zlib

import numpy as np
import pytest

from repro.store.disk import NodeDisk
from repro.tier.blockfile import (
    _HEAD,
    BlockFileReader,
    PageRecord,
    TIER_FILE,
    TierFileError,
    manifest_ids,
    write_block_file,
)
from repro.tier.codec import METHOD_DELTA, encode_page

WIDTH = 16
ALPHABET = 25


def make_pages(rng, n_pages=3, rows_per=8):
    """Pages with deliberately shuffled tree rows so the manifest must be
    reconstructed by sorting, not by concatenation order."""
    pages = []
    total = n_pages * rows_per
    tree_rows = rng.permutation(total)
    cursor = 0
    for _ in range(n_pages):
        rows = rng.integers(0, ALPHABET, size=(rows_per, WIDTH), dtype=np.uint8)
        centroid = rows[0].copy()
        method, payload = encode_page(rows, centroid, ALPHABET)
        page_tree_rows = tree_rows[cursor : cursor + rows_per]
        pages.append(
            (
                rows,
                PageRecord(
                    payload=payload,
                    method=method,
                    rows=rows_per,
                    block_ids=[int(7000 + r) for r in page_tree_rows],
                    tree_rows=[int(r) for r in page_tree_rows],
                    digests=[int(zlib.crc32(row.tobytes())) for row in rows],
                    centroid=[int(c) for c in centroid],
                ),
            )
        )
        cursor += rows_per
    return pages


def write(disk, pages):
    return write_block_file(disk, WIDTH, ALPHABET, [p for _, p in pages])


class TestRoundTrip:
    def test_header_and_pages_survive(self):
        rng = np.random.default_rng(17)
        disk = NodeDisk()
        pages = make_pages(rng)
        size = write(disk, pages)
        reader = BlockFileReader(disk)
        assert reader.width == WIDTH
        assert reader.alphabet_size == ALPHABET
        assert reader.row_count == sum(p.rows for _, p in pages)
        assert reader.bytes_on_disk == size == disk.size(TIER_FILE)
        assert reader.raw_bytes == sum(rows.nbytes for rows, _ in pages)
        for i, (rows, record) in enumerate(pages):
            meta = reader.pages[i]
            assert meta.block_ids == record.block_ids
            assert meta.tree_rows == record.tree_rows
            assert meta.digests == record.digests
            np.testing.assert_array_equal(
                meta.centroid, np.array(record.centroid, dtype=np.uint8)
            )
            np.testing.assert_array_equal(reader.read_page(i), rows)

    def test_page_entries_hold_only_what_a_reader_reads(self):
        """A page entry is its payload's place, codec method, row count and
        the centroid the codec decodes against; nothing else is written."""
        disk = NodeDisk()
        write(disk, make_pages(np.random.default_rng(19)))
        data = disk.read(TIER_FILE)
        table_len = _HEAD.unpack(data[: _HEAD.size])[3]
        table = json.loads(
            zlib.decompress(data[_HEAD.size : _HEAD.size + table_len])
        )
        keys = {"offset", "length", "method", "rows", "centroid"}
        assert [set(entry) for entry in table["pages"]] == [keys] * 3

    def test_manifest_is_insertion_order(self):
        rng = np.random.default_rng(23)
        disk = NodeDisk()
        pages = make_pages(rng)
        write(disk, pages)
        reader = BlockFileReader(disk)
        by_tree_row = sorted(
            (tr, bid)
            for _, p in pages
            for tr, bid in zip(p.tree_rows, p.block_ids)
        )
        assert reader.manifest == [bid for _, bid in by_tree_row]
        assert manifest_ids(disk) == reader.manifest

    def test_verify_row_passes_clean(self):
        rng = np.random.default_rng(29)
        disk = NodeDisk()
        pages = make_pages(rng)
        write(disk, pages)
        reader = BlockFileReader(disk)
        for i, (rows, _) in enumerate(pages):
            slots = list(range(rows.shape[0]))
            assert reader.verify_rows(i, slots) == [True] * len(slots)
            assert reader.verify_rows(i, [slots[-1], 0, slots[-1]]) == [True] * 3


class TestDamage:
    def test_payload_rot_fails_verify(self):
        rng = np.random.default_rng(31)
        disk = NodeDisk()
        pages = make_pages(rng)
        write(disk, pages)
        reader = BlockFileReader(disk)
        meta = reader.pages[1]
        disk.flip_bit(
            TIER_FILE, reader._payload_base + meta.offset + meta.length // 2
        )
        # A fresh read observes the rot: either the codec refuses or the
        # decoded row's digest no longer matches the acknowledged CRC.
        fresh = BlockFileReader(disk)
        assert not all(fresh.verify_rows(1, list(range(meta.rows))))
        # Other pages are untouched.
        assert all(fresh.verify_rows(0, list(range(meta.rows))))

    def test_bad_magic_raises(self):
        disk = NodeDisk()
        disk.write_atomic(TIER_FILE, b"NOPE" + b"\x00" * 40)
        with pytest.raises(TierFileError):
            BlockFileReader(disk)

    def test_table_rot_raises(self):
        rng = np.random.default_rng(37)
        disk = NodeDisk()
        write(disk, make_pages(rng))
        disk.flip_bit(TIER_FILE, _HEAD.size + 3)
        with pytest.raises(TierFileError):
            BlockFileReader(disk)

    def test_truncated_file_raises(self):
        disk = NodeDisk()
        disk.write_atomic(TIER_FILE, b"MT")
        with pytest.raises(TierFileError):
            BlockFileReader(disk)

    def test_manifest_ids_swallow_missing_and_rotten(self):
        disk = NodeDisk()
        assert manifest_ids(disk) == []
        disk.write_atomic(TIER_FILE, b"ROT" * 30)
        assert manifest_ids(disk) == []


def rewrite_table(disk, edit):
    """Replace the segment table with ``edit(table)`` under a valid CRC, so
    the reader gets past the checksum and must parse what it finds."""
    data = disk.read(TIER_FILE)
    magic, version, _crc, table_len, rowmeta_len, digests_len = _HEAD.unpack(
        data[: _HEAD.size]
    )
    table = json.loads(zlib.decompress(data[_HEAD.size : _HEAD.size + table_len]))
    table_bytes = zlib.compress(json.dumps(edit(table)).encode())
    head = _HEAD.pack(magic, version, zlib.crc32(table_bytes), len(table_bytes),
                      rowmeta_len, digests_len)
    disk.write_atomic(
        TIER_FILE, head + table_bytes + data[_HEAD.size + table_len :]
    )


def drop_width(table):
    del table["width"]
    return table


class TestMalformedTable:
    """A table that passes its CRC but is not the table the writer wrote
    raises TierFileError, and the manifest read claims nothing for it."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda table: [table],
            drop_width,
            lambda table: {**table, "width": "x"},
        ],
        ids=["not-an-object", "missing-width", "wrong-typed-width"],
    )
    def test_raises_the_typed_error(self, edit):
        disk = NodeDisk()
        write(disk, make_pages(np.random.default_rng(41)))
        rewrite_table(disk, edit)
        with pytest.raises(TierFileError, match="segment table failed to parse"):
            BlockFileReader(disk)
        assert manifest_ids(disk) == []

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda table: {**table, "alphabet_size": 0}, "outside 1..256"),
            (lambda table: {**table, "alphabet_size": 257}, "outside 1..256"),
            (lambda table: {**table, "pages": [
                {**page, "centroid": page["centroid"][:-1]}
                for page in table["pages"]]}, "centroid holds 15 codes"),
            (lambda table: {**table, "pages": [
                {**page, "centroid": page["centroid"] + [0]}
                for page in table["pages"]]}, "centroid holds 17 codes"),
        ],
        ids=["alphabet-0", "alphabet-257", "short-centroid", "long-centroid"],
    )
    def test_framing_no_page_decodes_under_raises(self, edit, message):
        """Well-typed but inconsistent framing is refused at open: a page
        decodes against a centroid one row wide, under an alphabet a byte
        holds.  Read later, a delta page with a short centroid raised a
        bare numpy ``ValueError`` that the verified read did not catch."""
        disk = NodeDisk()
        write(disk, make_pages(np.random.default_rng(43)))
        rewrite_table(disk, edit)
        with pytest.raises(TierFileError, match=message):
            BlockFileReader(disk)
        assert manifest_ids(disk) == []

    def test_delta_page_with_short_centroid_is_refused(self):
        """The case that escaped: rows near their centroid encode as
        ``delta+zlib``, whose decode broadcasts against the centroid."""
        rows = np.tile(np.arange(WIDTH, dtype=np.uint8) % ALPHABET, (8, 1))
        rows[np.arange(8), np.arange(8)] = 24
        centroid = rows[-1].copy()
        method, payload = encode_page(rows, centroid, ALPHABET)
        assert method == METHOD_DELTA
        disk = NodeDisk()
        write(disk, [(rows, PageRecord(
            payload=payload, method=method, rows=8,
            block_ids=list(range(8)), tree_rows=list(range(8)),
            digests=[int(zlib.crc32(row.tobytes())) for row in rows],
            centroid=[int(c) for c in centroid],
        ))])
        assert all(BlockFileReader(disk).verify_rows(0, list(range(8))))
        rewrite_table(disk, lambda table: {**table, "pages": [
            {**table["pages"][0], "centroid": table["pages"][0]["centroid"][:3]}
        ]})
        with pytest.raises(TierFileError, match="centroid holds 3 codes"):
            BlockFileReader(disk)

