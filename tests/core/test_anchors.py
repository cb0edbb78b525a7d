"""Tests for candidate scoring and anchor extension (repro.core.anchors)."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.core.anchors as anchors_module
from repro.core.anchors import (
    consecutivity_score,
    evaluate_candidate,
    extend_anchor,
    match_mask,
)
from repro.align.result import Anchor
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.matrices import BLOSUM62, dna_matrix
from tests.core.anchor_walk import extend_one

M = BLOSUM62.astype(np.float64)
SEED = int(os.environ.get("CHAOS_SEED", "0"))


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


def extend(q, s, query_start, query_end, subject_start, threshold, matrix=M):
    """One anchor through the batched kernel (a batch of one), as an
    :class:`Anchor` on subject ``"s"``."""
    ext = extend_anchor(q, s, [query_start], [subject_start], ([0], [len(s)]),
                        query_end - query_start, threshold, matrix)
    q_start, q_end, s_start, score = (column[0].item() for column in ext)
    return Anchor("s", q_start, q_end, s_start, s_start + q_end - q_start,
                  float(score))


class TestExtendAnchor:
    def test_identical_extends_fully(self):
        q = codes("MKVLAWFWAHKLMKVL")
        anchor = extend(q, q, 6, 10, 6, 0.8)
        assert (anchor.query_start, anchor.query_end) == (0, 16)
        assert anchor.score == float(M[q, q].sum())
        assert anchor.diagonal == 0

    def test_stops_at_first_identity_violation(self):
        core = "MKVLWRAH"
        q = codes("PPPP" + core + "PPPP")
        s = codes("GGGG" + core + "GGGG")  # flanks never match
        anchor = extend(q, s, 4, 12, 4, 0.8)
        # Extension is sequential (right side first): rightward the running
        # identity stays >= 0.8 for two residues (8/9, 8/10) and violates at
        # the third (8/11), so the right absorbs the full slack; afterwards
        # any leftward step starts at 8/11 < 0.8, so the left absorbs none.
        assert anchor.query_end == 12 + 2
        assert anchor.query_start == 4

    def test_off_diagonal_anchor(self):
        q = codes("AAAAMKVLWWAA")
        s = codes("MKVLWWAA")
        anchor = extend(q, s, 4, 8, 0, 0.9)
        assert anchor.diagonal == -4
        assert anchor.query_end == 12
        assert anchor.subject_end == 8

    def test_respects_sequence_bounds(self):
        q = codes("MKVL")
        s = codes("MKVLAAAA")
        anchor = extend(q, s, 0, 4, 0, 0.5)
        assert anchor.query_start >= 0
        assert anchor.query_end <= 4

    def test_empty_window_rejected(self):
        q = codes("MKVL")
        with pytest.raises(ValueError, match="non-empty"):
            extend(q, q, 2, 2, 2, 0.5)

    def test_out_of_bounds_rejected(self):
        q = codes("MKVL")
        with pytest.raises(ValueError, match="out of bounds"):
            extend(q, q, 2, 6, 2, 0.5)

    def test_low_threshold_extends_more(self):
        rng = np.random.default_rng(4)
        q = rng.integers(0, 20, 60).astype(np.uint8)
        s = q.copy()
        mask = rng.random(60) < 0.3
        s[mask] = rng.integers(0, 20, int(mask.sum()))
        s[25:33] = q[25:33]
        strict = extend(q, s, 25, 33, 25, 0.95)
        loose = extend(q, s, 25, 33, 25, 0.4)
        assert loose.length >= strict.length


@st.composite
def survivors(draw):
    """``(query, subjects, width, anchors, matrix)``: a query, subjects of
    their own lengths each holding a stretch homologous to it on one
    diagonal, and windows on them — on that diagonal (so walks run long and
    stop where the stretch ends), anywhere, at both ends of either sequence,
    repeated, or none at all."""
    alphabet, matrix = draw(st.sampled_from(
        [(PROTEIN.size, BLOSUM62), (DNA.size, dna_matrix())]))
    width = draw(st.integers(2, 10))
    query = draw(st.lists(st.integers(0, alphabet - 1), min_size=width,
                          max_size=60))
    subjects = draw(st.lists(
        st.lists(st.integers(0, alphabet - 1), min_size=width, max_size=60),
        min_size=1, max_size=4))
    shifts = []  # subject position = query position + shift
    for subject in subjects:
        shift = draw(st.integers(-(len(query) - 1), len(subject) - 1))
        start = draw(st.integers(0, len(subject)))
        for at in range(start, draw(st.integers(start, len(subject)))):
            if 0 <= at - shift < len(query) and draw(st.integers(0, 7)):
                subject[at] = query[at - shift]
        shifts.append(shift)
    anchors = []
    for _ in range(draw(st.integers(0, 12))):
        if anchors and draw(st.integers(0, 4)) == 0:
            anchors.append(anchors[-1])  # a duplicate survivor
            continue
        which = draw(st.integers(0, len(subjects) - 1))
        last_q, last_s = len(query) - width, len(subjects[which]) - width
        shift = shifts[which]
        low, high = max(0, -shift), min(last_q, last_s - shift)
        if low <= high and draw(st.booleans()):
            q = draw(st.integers(low, high))
            anchors.append((which, q, q + shift))
            continue
        anchors.append((
            which,
            draw(st.sampled_from([0, last_q]) | st.integers(0, last_q)),
            draw(st.sampled_from([0, last_s]) | st.integers(0, last_s)),
        ))
    return (np.array(query, dtype=np.uint8),
            [np.array(subject, dtype=np.uint8) for subject in subjects],
            width, anchors, matrix)


@pytest.mark.chaos
class TestExtendAnchorBatch:
    """Every anchor of a batch over subjects laid end to end is exactly the
    one-anchor walk on its own subject (``tests/core/anchor_walk.py``):
    spans, subject coordinates and score."""

    @seed(SEED)
    @settings(max_examples=150, deadline=None)
    @given(survivors(), st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from([anchors_module._PASS_RESIDUES, 1, 7, 40]))
    def test_equals_the_walk_one_anchor_at_a_time(self, case, threshold,
                                                  pass_residues):
        """Also with passes so short that a batch runs as several."""
        query, subjects, width, anchors, matrix = case
        flat = np.concatenate(subjects)
        lo = np.cumsum([0] + [len(s) for s in subjects])
        which = [a for a, _, _ in anchors]
        with mock.patch.object(anchors_module, "_PASS_RESIDUES", pass_residues):
            ext = extend_anchor(
                query, flat,
                query_start=[q for _, q, _ in anchors],
                subject_start=[lo[a] + s for a, _, s in anchors],
                subject_bounds=(lo[which], lo[1:][which]),
                width=width, identity_threshold=threshold, matrix=matrix,
            )
        assert all(column.shape == (len(anchors),) for column in ext)
        for at, (a, q, s) in enumerate(anchors):
            want = extend_one(query, subjects[a], "s", q, q + width, s,
                              threshold, matrix)
            s_start = ext.subject_start[at] - lo[a]
            assert (ext.query_start[at], ext.query_end[at], s_start) == (
                want.query_start, want.query_end, want.subject_start)
            assert float(ext.score[at]) == want.score

    def test_no_survivors(self):
        ext = extend_anchor(codes("MKVL"), codes("MKVL"), [], [], ([], []), 2,
                            0.5, BLOSUM62)
        assert [column.size for column in ext] == [0, 0, 0, 0]

    def test_a_walk_never_leaves_its_subject(self):
        """Two identical subjects end to end: the right walk of an anchor at
        the end of the first stops at its record, not in the second."""
        q = codes("MKVLAWFWAH")
        flat = np.concatenate([q, q])
        ext = extend_anchor(q, flat, [6, 0], [6, 10], ([0, 10], [10, 20]), 4, 0.5,
                            BLOSUM62)
        assert ext.query_start.tolist() == [0, 0]
        assert ext.query_end.tolist() == [10, 10]
        assert ext.subject_start.tolist() == [0, 10]
