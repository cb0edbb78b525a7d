"""Tests for repro.seq.distance."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import DNA, PROTEIN, Alphabet
from repro.seq.distance import (
    HammingDistance,
    MatrixDistance,
    default_distance,
    hamming,
    hamming_batch,
    percent_identity,
)
from repro.seq.matrices import BLOSUM62, mendel_distance_matrix

codes = st.lists(st.integers(0, 19), min_size=1, max_size=30)
SEED = int(os.environ.get("CHAOS_SEED", "0"))


def arr(values) -> np.ndarray:
    return np.array(values, dtype=np.uint8)


class TestHamming:
    def test_identical(self):
        assert hamming(arr([1, 2, 3]), arr([1, 2, 3])) == 0.0

    def test_all_different(self):
        assert hamming(arr([0, 0]), arr([1, 1])) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming(arr([1, 2]), arr([1, 2, 3]))

    def test_batch_requires_batch_call(self):
        with pytest.raises(ValueError, match="hamming_batch"):
            hamming(arr([1]), arr([[1], [2]]))

    @given(codes, codes)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        x, y = arr(a[:n]), arr(b[:n])
        assert hamming(x, y) == hamming(y, x)

    @given(codes)
    def test_identity_axiom(self, a):
        x = arr(a)
        assert hamming(x, x) == 0.0

    @given(codes, codes, codes)
    def test_triangle_inequality(self, a, b, c):
        n = min(len(a), len(b), len(c))
        x, y, z = arr(a[:n]), arr(b[:n]), arr(c[:n])
        assert hamming(x, z) <= hamming(x, y) + hamming(y, z)


class TestHammingBatch:
    def test_matches_scalar(self, rng):
        q = rng.integers(0, 4, 10).astype(np.uint8)
        batch = rng.integers(0, 4, (20, 10)).astype(np.uint8)
        expected = [hamming(q, row) for row in batch]
        assert hamming_batch(q, batch).tolist() == expected

    def test_single_row(self):
        out = hamming_batch(arr([0, 1]), arr([0, 0]))
        assert out.tolist() == [1.0]


class TestPercentIdentity:
    def test_full(self):
        assert percent_identity(arr([1, 2]), arr([1, 2])) == 1.0

    def test_half(self):
        assert percent_identity(arr([1, 2]), arr([1, 3])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percent_identity(arr([]), arr([]))


class TestMatrixDistance:
    @pytest.fixture(scope="class")
    def dist(self):
        return MatrixDistance(mendel_distance_matrix(BLOSUM62))

    def test_identical_is_zero(self, dist):
        x = PROTEIN.encode("WWLLAA")
        assert dist(x, x) == 0.0

    def test_matches_manual_sum(self, dist):
        a = PROTEIN.encode("AW")
        b = PROTEIN.encode("RW")
        expected = dist.matrix[a[0], b[0]] + dist.matrix[a[1], b[1]]
        assert dist(a, b) == expected

    def test_batch_matches_scalar(self, dist, rng):
        q = rng.integers(0, 20, 8).astype(np.uint8)
        batch = rng.integers(0, 20, (50, 8)).astype(np.uint8)
        expected = np.array([dist(q, row) for row in batch])
        assert np.allclose(dist.batch(q, batch), expected)

    def test_scalar_refuses_matrix_arg(self, dist):
        with pytest.raises(ValueError, match="batch"):
            dist(arr([0, 1]), np.zeros((2, 2), dtype=np.uint8))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            MatrixDistance(np.zeros((2, 3)))

    def test_more_letters_than_a_code_names_rejected(self):
        with pytest.raises(ValueError, match="257 letters"):
            MatrixDistance(np.zeros((257, 257)))

    @pytest.mark.parametrize("entry", [0.5, 1e-9, np.nan, np.inf])
    def test_non_integral_matrix_rejected(self, entry):
        """The batched sum is exact only over integers (see the oracle)."""
        matrix = mendel_distance_matrix(BLOSUM62)
        matrix[3, 5] = matrix[5, 3] = entry
        with pytest.raises(ValueError, match="integer-valued"):
            MatrixDistance(matrix)

    @pytest.mark.chaos
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.one_of(st.integers(2, 40), st.just(256)),
        length=st.integers(2, 64),
        rows=st.integers(0, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=256, length=64, rows=5000, seed=0)
    @example(size=2, length=2, rows=0, seed=1)
    def test_batch_oracle(self, size, length, rows, seed):
        """``batch`` against a Python-int sum and against ``__call__``, bit
        for bit, on random integer metrics (letters as points under L1).
        256 letters is the widest table, where the uint16 index reaches
        65,535; the extreme codes are always present."""
        rng = np.random.default_rng([SEED, seed])
        places = rng.integers(0, int(rng.integers(1, 1000)), (size, 3))
        matrix = np.abs(places[:, None, :] - places[None, :, :]).sum(axis=-1)
        dist = MatrixDistance(matrix)
        query = rng.integers(0, size, length).astype(np.uint8)
        batch = rng.integers(0, size, (rows, length)).astype(np.uint8)
        query[0] = batch[:, -1] = size - 1
        table = matrix.tolist()
        want = np.array(
            [sum(table[a][b] for a, b in zip(query.tolist(), row))
             for row in batch.tolist()],
            dtype=np.float64,
        )
        got = dist.batch(query, batch)
        assert got.dtype == np.float64 and got.shape == (rows,)
        assert got.tobytes() == want.tobytes()
        pairs = np.array([dist(query, row) for row in batch], dtype=np.float64)
        assert got.tobytes() == pairs.tobytes()

    @given(codes, codes)
    def test_symmetry(self, a, b):
        dist = MatrixDistance(mendel_distance_matrix(BLOSUM62))
        n = min(len(a), len(b))
        x, y = arr(a[:n]), arr(b[:n])
        assert dist(x, y) == pytest.approx(dist(y, x))

    @given(codes, codes, codes)
    def test_triangle_inequality(self, a, b, c):
        dist = MatrixDistance(mendel_distance_matrix(BLOSUM62))
        n = min(len(a), len(b), len(c))
        x, y, z = arr(a[:n]), arr(b[:n]), arr(c[:n])
        assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-9


class TestDefaultDistance:
    def test_dna_is_hamming(self):
        assert isinstance(default_distance(DNA), HammingDistance)

    def test_protein_is_matrix(self):
        assert isinstance(default_distance(PROTEIN), MatrixDistance)

    def test_unknown_alphabet(self):
        other = Alphabet(name="rna", letters="ACGU", canonical_size=4)
        with pytest.raises(ValueError, match="no default distance"):
            default_distance(other)
