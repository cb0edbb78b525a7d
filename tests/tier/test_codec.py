"""The reference-free page codec: losslessness, method selection, damage."""

import zlib

import numpy as np
import pytest

from repro.tier.codec import (
    METHOD_DELTA,
    METHOD_NAMES,
    METHOD_PACKED,
    METHOD_RAW,
    METHOD_ZLIB,
    TierCodecError,
    decode_page,
    encode_page,
)


def roundtrip(rows, alphabet_size):
    centroid = rows[0].copy()
    method, payload = encode_page(rows, centroid, alphabet_size)
    decoded = decode_page(
        method, payload, rows.shape[0], rows.shape[1], centroid, alphabet_size
    )
    return method, payload, decoded


class TestLossless:
    def test_protein_rows_roundtrip(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 25, size=(64, 24), dtype=np.uint8)
        method, _payload, decoded = roundtrip(rows, 25)
        assert method in METHOD_NAMES
        np.testing.assert_array_equal(decoded, rows)

    def test_dna_rows_near_centroid_pick_packed(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 4, size=32, dtype=np.uint8)
        rows = np.tile(base, (128, 1))
        mask = rng.random(rows.shape) < 0.05
        rows[mask] = (rows[mask] + 1) % 4
        centroid = base.copy()
        method, payload = encode_page(rows, centroid, 4)
        assert method == METHOD_PACKED
        decoded = decode_page(method, payload, 128, 32, centroid, 4)
        np.testing.assert_array_equal(decoded, rows)

    def test_packed_never_offered_for_wide_alphabets(self):
        rows = np.zeros((16, 8), dtype=np.uint8)
        method, _payload, decoded = roundtrip(rows, 25)
        assert method != METHOD_PACKED
        np.testing.assert_array_equal(decoded, rows)

    def test_redundant_rows_compress_well(self):
        rows = np.full((256, 32), 7, dtype=np.uint8)
        method, payload, decoded = roundtrip(rows, 25)
        assert method in (METHOD_ZLIB, METHOD_DELTA)
        assert len(payload) < rows.nbytes // 10
        np.testing.assert_array_equal(decoded, rows)

    def test_incompressible_rows_fall_back_to_raw(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 256, size=(32, 16), dtype=np.uint8)
        method, payload, decoded = roundtrip(rows, 256)
        assert method == METHOD_RAW
        assert payload == rows.tobytes()
        np.testing.assert_array_equal(decoded, rows)

    def test_single_row_and_single_column(self):
        for shape in ((1, 32), (64, 1), (1, 1)):
            rows = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape) % 4
            _m, _p, decoded = roundtrip(rows, 4)
            np.testing.assert_array_equal(decoded, rows)


class TestDeterminism:
    def test_same_input_same_output(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 4, size=(100, 20), dtype=np.uint8)
        centroid = rows[0].copy()
        first = encode_page(rows, centroid, 4)
        second = encode_page(rows, centroid, 4)
        assert first == second


class TestDamage:
    def test_corrupt_zlib_payload_raises(self):
        rows = np.full((64, 16), 3, dtype=np.uint8)
        centroid = rows[0].copy()
        method, payload = encode_page(rows, centroid, 25)
        assert method != METHOD_RAW
        broken = bytes([payload[0] ^ 0xFF]) + payload[1:]
        with pytest.raises(TierCodecError):
            decode_page(method, broken, 64, 16, centroid, 25)

    def test_size_mismatch_raises(self):
        rows = np.zeros((8, 8), dtype=np.uint8)
        centroid = rows[0].copy()
        method, payload = encode_page(rows, centroid, 25)
        with pytest.raises(TierCodecError):
            decode_page(method, payload, 9, 8, centroid, 25)

    def test_unknown_method_raises(self):
        with pytest.raises(TierCodecError):
            decode_page(
                99, b"x" * 8, 1, 8, np.zeros(8, dtype=np.uint8), 25
            )

    def test_truncated_raw_payload_raises(self):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 256, size=(2, 8), dtype=np.uint8)
        centroid = rows[0].copy()
        with pytest.raises(TierCodecError):
            decode_page(METHOD_RAW, rows.tobytes()[:-1], 2, 8, centroid, 256)

    @pytest.mark.parametrize(
        "method, payload",
        # well-formed streams for a 4 x 8 page: 32 delta bytes, or 32
        # 2-bit residues packed into 8
        [(METHOD_DELTA, zlib.compress(bytes(32))),
         (METHOD_PACKED, zlib.compress(bytes(8)))],
        ids=["delta", "packed"],
    )
    @pytest.mark.parametrize(
        "centroid_width, alphabet_size",
        [(7, 4), (9, 4), (0, 4), (8, 0), (8, -1), (8, 257)],
        ids=["short-centroid", "long-centroid", "no-centroid",
             "alphabet-0", "alphabet-negative", "alphabet-257"],
    )
    def test_framing_it_cannot_decode_under_raises(
        self, method, payload, centroid_width, alphabet_size
    ):
        """A centroid that is not one row wide, or an alphabet no byte
        holds, is damage too: the typed error, not a numpy broadcast
        ``ValueError`` or silently wrong residues."""
        assert decode_page(
            method, payload, 4, 8, np.zeros(8, dtype=np.uint8), 4
        ).shape == (4, 8)
        with pytest.raises(TierCodecError):
            decode_page(method, payload, 4, 8,
                        np.zeros(centroid_width, dtype=np.uint8), alphabet_size)
