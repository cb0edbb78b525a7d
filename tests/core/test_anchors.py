"""Tests for candidate scoring and anchor extension (repro.core.anchors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anchors import (
    consecutivity_score,
    evaluate_candidate,
    extend_anchor,
    match_mask,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62

M = BLOSUM62.astype(np.float64)


def codes(text: str) -> np.ndarray:
    return PROTEIN.encode(text)


class TestMatchMask:
    def test_exact_only(self):
        mask = match_mask(codes("MKVL"), codes("MKAL"))
        assert mask.tolist() == [True, True, False, True]

    def test_positive_substitution_counts_with_matrix(self):
        # L->I scores +2 in BLOSUM62: counts as successive-eligible.
        mask = match_mask(codes("L"), codes("I"), M)
        assert mask.tolist() == [True]

    def test_negative_substitution_excluded(self):
        # W->G scores -2.
        mask = match_mask(codes("W"), codes("G"), M)
        assert mask.tolist() == [False]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            match_mask(codes("MK"), codes("MKV"))


class TestConsecutivityScore:
    def test_all_consecutive(self):
        assert consecutivity_score(np.array([1, 1, 1, 1], bool)) == 1.0

    def test_no_matches(self):
        assert consecutivity_score(np.zeros(5, bool)) == 0.0

    def test_isolated_matches_score_zero(self):
        assert consecutivity_score(np.array([1, 0, 1, 0, 1], bool)) == 0.0

    def test_mixed(self):
        # Matches at 0,1 (run) and 3 (isolated): 2 of 3 in succession.
        mask = np.array([1, 1, 0, 1], bool)
        assert consecutivity_score(mask) == pytest.approx(2 / 3)

    def test_run_at_end(self):
        mask = np.array([0, 1, 1], bool)
        assert consecutivity_score(mask) == 1.0

    def test_single_position(self):
        assert consecutivity_score(np.array([1], bool)) == 0.0


class TestEvaluateCandidate:
    def test_identical(self):
        score = evaluate_candidate(codes("MKVLWWAA"), codes("MKVLWWAA"))
        assert score.identity == 1.0
        assert score.c_score == 1.0

    def test_identity_counts_exact_only(self):
        # L vs I is a positive substitution: c-score counts it, identity not.
        score = evaluate_candidate(codes("LLLL"), codes("LLLI"), M)
        assert score.identity == 0.75
        assert score.c_score == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_candidate(codes(""), codes(""))


@st.composite
def stacked_pairs(draw, alphabet_size):
    """``(windows, candidates)``, both ``(C, L)``: random rows, copies, near
    copies, and rows sharing no residue with their window."""
    length = draw(st.integers(2, 12))
    count = draw(st.integers(1, 8))
    rows = st.lists(st.integers(0, alphabet_size - 1), min_size=length,
                    max_size=length)
    windows = np.array(draw(st.lists(rows, min_size=count, max_size=count)),
                       dtype=np.uint8)
    candidates = np.array(draw(st.lists(rows, min_size=count, max_size=count)),
                          dtype=np.uint8)
    for row, kind in enumerate(draw(st.lists(
            st.sampled_from(["random", "copy", "near", "disjoint"]),
            min_size=count, max_size=count))):
        if kind in ("copy", "near"):
            candidates[row] = windows[row]
        if kind == "near":
            candidates[row, draw(st.integers(0, length - 1))] += 1
            candidates[row] %= alphabet_size
        if kind == "disjoint":
            candidates[row] = (windows[row] + 1) % alphabet_size
    return windows, candidates


class TestEvaluateCandidateStacked:
    """Row ``j`` of a ``(C, L)`` call is the one-pair call on row ``j``:
    the same floats, not close ones."""

    @staticmethod
    def check(windows, candidates, matrix):
        stacked = evaluate_candidate(windows, candidates, matrix)
        assert stacked.identity.shape == stacked.c_score.shape == (len(windows),)
        for row, (window, candidate) in enumerate(zip(windows, candidates)):
            one = evaluate_candidate(window, candidate, matrix)
            assert isinstance(one.identity, float) and isinstance(one.c_score, float)
            assert (stacked.identity[row], stacked.c_score[row]) == (
                one.identity, one.c_score)

    @settings(max_examples=60, deadline=None)
    @given(stacked_pairs(PROTEIN.size))
    def test_protein_with_the_positives_matrix(self, pair):
        self.check(*pair, M)

    @settings(max_examples=60, deadline=None)
    @given(stacked_pairs(4))
    def test_dna_without_a_matrix(self, pair):
        self.check(*pair, None)

    def test_rows_without_a_match_score_zero(self):
        windows = np.zeros((3, 2), dtype=np.uint8)
        candidates = np.array([[1, 1], [0, 1], [0, 0]], dtype=np.uint8)
        score = evaluate_candidate(windows, candidates)
        assert score.identity.tolist() == [0.0, 0.5, 1.0]
        assert score.c_score.tolist() == [0.0, 0.0, 1.0]
        self.check(windows, candidates, None)

    def test_empty_stack_rejected_only_for_zero_length(self):
        empty = np.empty((0, 8), dtype=np.uint8)
        assert evaluate_candidate(empty, empty).identity.shape == (0,)
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_candidate(np.empty((3, 0), np.uint8), np.empty((3, 0), np.uint8))


class TestExtendAnchor:
    def test_identical_extends_fully(self):
        q = codes("MKVLAWFWAHKLMKVL")
        anchor = extend_anchor(q, q, "s", 6, 10, 6, identity_threshold=0.8, matrix=M)
        assert (anchor.query_start, anchor.query_end) == (0, 16)
        assert anchor.score == float(M[q, q].sum())
        assert anchor.diagonal == 0

    def test_stops_at_first_identity_violation(self):
        core = "MKVLWRAH"
        q = codes("PPPP" + core + "PPPP")
        s = codes("GGGG" + core + "GGGG")  # flanks never match
        anchor = extend_anchor(
            q, s, "s", 4, 12, 4, identity_threshold=0.8, matrix=M
        )
        # Extension is sequential (right side first): rightward the running
        # identity stays >= 0.8 for two residues (8/9, 8/10) and violates at
        # the third (8/11), so the right absorbs the full slack; afterwards
        # any leftward step starts at 8/11 < 0.8, so the left absorbs none.
        assert anchor.query_end == 12 + 2
        assert anchor.query_start == 4

    def test_off_diagonal_anchor(self):
        q = codes("AAAAMKVLWWAA")
        s = codes("MKVLWWAA")
        anchor = extend_anchor(q, s, "s", 4, 8, 0, identity_threshold=0.9, matrix=M)
        assert anchor.diagonal == -4
        assert anchor.query_end == 12
        assert anchor.subject_end == 8

    def test_respects_sequence_bounds(self):
        q = codes("MKVL")
        s = codes("MKVLAAAA")
        anchor = extend_anchor(q, s, "s", 0, 4, 0, identity_threshold=0.5, matrix=M)
        assert anchor.query_start >= 0
        assert anchor.query_end <= 4

    def test_empty_window_rejected(self):
        q = codes("MKVL")
        with pytest.raises(ValueError, match="non-empty"):
            extend_anchor(q, q, "s", 2, 2, 2, 0.5, M)

    def test_out_of_bounds_rejected(self):
        q = codes("MKVL")
        with pytest.raises(ValueError, match="out of bounds"):
            extend_anchor(q, q, "s", 2, 6, 2, 0.5, M)

    def test_low_threshold_extends_more(self):
        rng = np.random.default_rng(4)
        q = rng.integers(0, 20, 60).astype(np.uint8)
        s = q.copy()
        mask = rng.random(60) < 0.3
        s[mask] = rng.integers(0, 20, int(mask.sum()))
        s[25:33] = q[25:33]
        strict = extend_anchor(q, s, "s", 25, 33, 25, 0.95, M)
        loose = extend_anchor(q, s, "s", 25, 33, 25, 0.4, M)
        assert loose.length >= strict.length
