"""Tests for repro.align.smith_waterman (validated against a brute-force
reference implementation of the Gotoh recurrences)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.smith_waterman import (
    _scan_max_affine,
    smith_waterman,
    smith_waterman_score,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62, PAM250, dna_matrix

M = BLOSUM62.astype(np.float64)


def reference_sw(q, s, matrix, gap_open, gap_extend):
    """O(nm) brute-force Gotoh local alignment, trusted reference."""
    n, m = len(q), len(s)
    NEG = -1e18
    h = np.zeros((n + 1, m + 1))
    e = np.full((n + 1, m + 1), NEG)
    f = np.full((n + 1, m + 1), NEG)
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            e[i, j] = max(h[i, j - 1] - gap_open, e[i, j - 1] - gap_extend)
            f[i, j] = max(h[i - 1, j] - gap_open, f[i - 1, j] - gap_extend)
            h[i, j] = max(
                0.0, h[i - 1, j - 1] + matrix[q[i - 1], s[j - 1]], e[i, j], f[i, j]
            )
            best = max(best, h[i, j])
    return best


class TestScanMaxAffine:
    def test_basic(self):
        values = np.array([5.0, 0.0, 0.0, 10.0])
        out = _scan_max_affine(values, 1.0)
        assert out.tolist() == [5.0, 4.0, 3.0, 10.0]

    def test_out_buffer(self):
        values = np.array([3.0, 1.0])
        buf = np.empty(2)
        out = _scan_max_affine(values, 0.5, out=buf)
        assert out is buf
        assert out.tolist() == [3.0, 2.5]

    def test_matches_quadratic_definition(self, rng):
        values = rng.normal(size=37)
        extend = 0.7
        out = _scan_max_affine(values.copy(), extend)
        for j in range(37):
            expected = max(values[k] - extend * (j - k) for k in range(j + 1))
            assert out[j] == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gap_open=st.integers(0, 12),
        extend=st.integers(1, 3),
        n=st.integers(1, 17),
        in_place=st.booleans(),
    )
    def test_exact_on_integers_and_the_sentinel(self, seed, gap_open, extend,
                                                n, in_place):
        """Integer values, some of them the banded kernel's -1e18 "minus
        infinity", across its band widths: bit for bit the quadratic
        definition, into a fresh array or over *values* itself."""
        rng = np.random.default_rng(seed)
        values = rng.integers(-60, 61, (3, n)).astype(np.float64)
        values[rng.random((3, n)) < 0.3] = -1e18
        want = [[max(values[row, k] - gap_open - extend * (j - k)
                     for k in range(j + 1)) for j in range(n)]
                for row in range(3)]
        out = _scan_max_affine(values, float(extend),
                               out=values if in_place else None,
                               gap_open=float(gap_open))
        assert out.tolist() == want


class TestScoreOnly:
    def test_matches_reference_random(self, rng):
        for _ in range(20):
            q = rng.integers(0, 20, int(rng.integers(2, 35))).astype(np.uint8)
            s = rng.integers(0, 20, int(rng.integers(2, 35))).astype(np.uint8)
            got = smith_waterman_score(q, s, M).score
            assert got == pytest.approx(reference_sw(q, s, M, 11.0, 1.0))

    def test_identical_sequences(self):
        q = PROTEIN.encode("MKVLAWFW")
        expected = float(M[q, q].sum())
        assert smith_waterman_score(q, q, M).score == expected

    def test_empty_input(self):
        q = PROTEIN.encode("MK")
        empty = np.zeros(0, dtype=np.uint8)
        assert smith_waterman_score(empty, q, M).score == 0.0
        assert smith_waterman_score(q, empty, M).score == 0.0

    def test_gap_params_validated(self):
        q = PROTEIN.encode("MK")
        with pytest.raises(ValueError):
            smith_waterman_score(q, q, M, gap_open=0)
        with pytest.raises(ValueError, match="gap_open"):
            smith_waterman_score(q, q, M, gap_open=1.0, gap_extend=5.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        go=st.sampled_from([5.0, 11.0, 15.0]),
        ge=st.sampled_from([1.0, 2.0]),
    )
    def test_matches_reference_property(self, seed, go, ge):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 20, int(rng.integers(1, 25))).astype(np.uint8)
        s = rng.integers(0, 20, int(rng.integers(1, 25))).astype(np.uint8)
        got = smith_waterman_score(q, s, M, gap_open=go, gap_extend=ge).score
        assert got == pytest.approx(reference_sw(q, s, M, go, ge))

    @pytest.mark.parametrize("name", ["BLOSUM62", "PAM250", "dna"])
    def test_integer_matrices_exact(self, name, rng):
        """Integer scores and gap costs: the reference's score bit for bit."""
        matrix = {"BLOSUM62": BLOSUM62, "PAM250": PAM250,
                  "dna": dna_matrix()}[name].astype(np.float64)
        letters = 4 if name == "dna" else 20
        for go, ge in ((11.0, 1.0), (5.0, 2.0)):
            for _ in range(10):
                q = rng.integers(0, letters, int(rng.integers(1, 30)))
                s = q.copy()
                flips = rng.random(s.size) < 0.4
                s[flips] = rng.integers(0, letters, int(flips.sum()))
                q, s = q.astype(np.uint8), np.delete(s, s.size // 2).astype(np.uint8)
                got = smith_waterman_score(q, s, matrix, gap_open=go,
                                           gap_extend=ge).score
                assert got == reference_sw(q, s, matrix, go, ge)


class TestFullTraceback:
    def test_score_matches_score_only(self, rng):
        for _ in range(10):
            q = rng.integers(0, 20, 25).astype(np.uint8)
            s = rng.integers(0, 20, 30).astype(np.uint8)
            full = smith_waterman(q, s, M, alphabet_letters=PROTEIN.letters)
            fast = smith_waterman_score(q, s, M)
            assert full.score == pytest.approx(fast.score)

    def test_self_alignment_identity_one(self):
        q = PROTEIN.encode("MKVLAWFWAHKL")
        result = smith_waterman(q, q, M, alphabet_letters=PROTEIN.letters)
        assert result.identity == 1.0
        assert result.gaps == 0
        assert result.aligned_query == "MKVLAWFWAHKL"
        assert result.query_start == 0 and result.query_end == 12

    def test_gapped_alignment_detected(self):
        q = PROTEIN.encode("MKVLAWFWAHKLMKVLAW")
        # Subject with a 2-residue insertion in the middle.
        s = PROTEIN.encode("MKVLAWFWA" + "GG" + "HKLMKVLAW")
        result = smith_waterman(q, s, M, alphabet_letters=PROTEIN.letters)
        assert result.gaps == 2
        assert "-" in result.aligned_query
        assert "-" not in result.aligned_subject

    def test_aligned_strings_rescore_to_score(self, rng):
        for _ in range(8):
            q = rng.integers(0, 20, 20).astype(np.uint8)
            s = q.copy()
            mask = rng.random(20) < 0.2
            s[mask] = rng.integers(0, 20, int(mask.sum()))
            result = smith_waterman(q, s, M, alphabet_letters=PROTEIN.letters,
                                    gap_open=11.0, gap_extend=1.0)
            score = 0.0
            for qc, sc in zip(result.aligned_query, result.aligned_subject):
                if qc == "-" or sc == "-":
                    score -= 1.0  # every traceback gap column came from E/F
                    continue
                score += M[PROTEIN.index_of(qc), PROTEIN.index_of(sc)]
            # Gap columns cost open on the first and extend on the rest; the
            # cheap rescoring above charges extend for all, so allow slack of
            # (open - extend) per gap run.
            assert score >= result.score - 1e9 * 0  # structural sanity
            assert len(result.aligned_query) == len(result.aligned_subject)

    def test_no_alignment_when_all_negative(self):
        # Tryptophan-free query vs subject chosen so no positive pairs exist
        # is hard to construct with BLOSUM62; use a matrix of -1s instead.
        neg = np.full((24, 24), -1.0)
        q = PROTEIN.encode("MKVL")
        result = smith_waterman(q, q, neg)
        assert result.score == 0.0
        assert result.aligned_query == ""

    def test_empty_sequences(self):
        empty = np.zeros(0, dtype=np.uint8)
        q = PROTEIN.encode("MK")
        assert smith_waterman(empty, q, M).score == 0.0
