"""Tests for the banded gapped extension (repro.align.gapped)."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import gapped
from repro.align.gapped import banded_extend
from repro.align.smith_waterman import smith_waterman, smith_waterman_score
from repro.seq import random_set
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62, dna_matrix
from repro.seq.mutate import MutationModel, mutate

M = BLOSUM62.astype(np.float64)


class TestIdenticalSequences:
    def test_full_span_and_sw_score(self, rng):
        q = rng.integers(0, 20, 150).astype(np.uint8)
        ext = banded_extend(q, q, M, 75, 75, bandwidth=8)
        sw = smith_waterman_score(q, q, M)
        assert ext.score == sw.score
        assert (ext.query_start, ext.query_end) == (0, 150)
        assert (ext.subject_start, ext.subject_end) == (0, 150)

    def test_seed_at_edges(self, rng):
        q = rng.integers(0, 20, 60).astype(np.uint8)
        first = banded_extend(q, q, M, 0, 0, bandwidth=4)
        last = banded_extend(q, q, M, 59, 59, bandwidth=4)
        assert first.query_end == 60
        assert last.query_start == 0


class TestIndels:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), gap_len=st.integers(1, 4))
    def test_matches_sw_within_band(self, seed, gap_len):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 20, 120).astype(np.uint8)
        insert_at = int(rng.integers(30, 90))
        s = np.concatenate(
            [
                q[:insert_at],
                rng.integers(0, 20, gap_len).astype(np.uint8),
                q[insert_at:],
            ]
        )
        ext = banded_extend(q, s, M, 10, 10, bandwidth=8)
        sw = smith_waterman_score(q, s, M)
        # The gap (<= 4) fits well inside the band, so the banded score must
        # equal the unrestricted optimum.
        assert ext.score == pytest.approx(sw.score)

    def test_gap_wider_than_band_clipped(self, rng):
        q = rng.integers(0, 20, 100).astype(np.uint8)
        s = np.concatenate(
            [q[:50], rng.integers(0, 20, 30).astype(np.uint8), q[50:]]
        )
        narrow = banded_extend(q, s, M, 10, 10, bandwidth=2)
        wide = banded_extend(q, s, M, 10, 10, bandwidth=40)
        assert wide.score >= narrow.score


class TestXDrop:
    def test_junk_extension_stays_local(self, rng):
        q = rng.integers(0, 10, 200).astype(np.uint8)
        s = rng.integers(10, 20, 200).astype(np.uint8)
        # Plant a tiny island of agreement at the seed.
        s[100:108] = q[100:108]
        ext = banded_extend(q, s, M, 100, 100, bandwidth=6, x_drop=15.0)
        assert ext.query_end - ext.query_start < 60

    def test_larger_xdrop_extends_at_least_as_far(self, rng):
        q = rng.integers(0, 20, 150).astype(np.uint8)
        s = q.copy()
        mask = rng.random(150) < 0.3
        s[mask] = rng.integers(0, 20, int(mask.sum()))
        small = banded_extend(q, s, M, 75, 75, bandwidth=6, x_drop=5.0)
        large = banded_extend(q, s, M, 75, 75, bandwidth=6, x_drop=60.0)
        assert large.score >= small.score


class TestValidation:
    def test_seed_bounds(self):
        q = PROTEIN.encode("MKVL")
        with pytest.raises(ValueError, match="seed_query"):
            banded_extend(q, q, M, 9, 0)
        with pytest.raises(ValueError, match="seed_subject"):
            banded_extend(q, q, M, 0, 9)

    def test_param_validation(self):
        q = PROTEIN.encode("MKVL")
        with pytest.raises(ValueError):
            banded_extend(q, q, M, 0, 0, bandwidth=-1)
        with pytest.raises(ValueError):
            banded_extend(q, q, M, 0, 0, gap_open=0)
        with pytest.raises(ValueError):
            banded_extend(q, q, M, 0, 0, x_drop=-1)

    def test_bandwidth_zero_is_ungapped_diagonal(self, rng):
        q = rng.integers(0, 20, 40).astype(np.uint8)
        ext = banded_extend(q, q, M, 20, 20, bandwidth=0)
        assert ext.query_end - ext.query_start == ext.subject_end - ext.subject_start
        assert ext.score == float(M[q, q].sum())


# -- oracle ------------------------------------------------------------------
# A cell-by-cell reference of the same banded affine X-drop extension.  It
# shares no layout with the implementation: cells are keyed by their absolute
# column (no band offsets, no reused row buffers, no prefix scan) and every
# value is one scalar ``max``.


def reference_extend(query, subject, matrix, bandwidth, gap_open, gap_extend,
                     x_drop):
    """One direction from position 0: ``(query_consumed, subject_consumed,
    score)``.  Row ``i`` holds the columns ``j`` with ``|j - i| <= bandwidth``
    and ``0 <= j <= m``; column 0 is the pure-gap border."""
    return reference_rows(query, subject, matrix, bandwidth, gap_open,
                          gap_extend, x_drop)[:3]


def reference_rows(query, subject, matrix, bandwidth, gap_open, gap_extend,
                   x_drop):
    """:func:`reference_extend`'s result plus the row the extension X-dropped
    on (``None`` when it ran out of rows)."""
    n, m = len(query), len(subject)
    gone = float("-inf")
    best, best_i, best_j = 0.0, 0, 0
    h_prev = {0: 0.0}
    for j in range(1, min(m, bandwidth) + 1):
        h_prev[j] = -gap_open - gap_extend * (j - 1)
    f_prev = {}
    for i in range(1, n + 1):
        h, f = {}, {}
        e = gone  # best score ending in a gap that consumed subject[j - 1]
        for j in range(max(0, i - bandwidth), min(m, i + bandwidth) + 1):
            f[j] = max(h_prev.get(j, gone) - gap_open,
                       f_prev.get(j, gone) - gap_extend)
            if j == 0:
                arrived = f[j]
                h[j] = -gap_open - gap_extend * (i - 1)
            else:
                diagonal = (h_prev.get(j - 1, gone)
                            + float(matrix[query[i - 1], subject[j - 1]]))
                arrived = max(diagonal, f[j])
                h[j] = max(arrived, e)
            # A gap opens off a cell reached diagonally or vertically.
            e = max(arrived - gap_open, e - gap_extend)
        row_best, row_j = gone, 0
        for j in sorted(h):
            if h[j] > row_best:
                row_best, row_j = h[j], j
        if row_best > best:
            best, best_i, best_j = row_best, i, row_j
        if row_best < best - x_drop:
            return best_i, best_j, best, i
        for j in h:
            if h[j] < best - x_drop:
                h[j] = gone
        h_prev, f_prev = h, f
    return best_i, best_j, best, None


def reference_banded_extend(query, subject, matrix, seed_query, seed_subject,
                            **kw):
    fwd_i, fwd_j, fwd = reference_extend(
        query[seed_query:], subject[seed_subject:], matrix, **kw)
    bwd_i, bwd_j, bwd = reference_extend(
        query[:seed_query][::-1], subject[:seed_subject][::-1], matrix, **kw)
    return (seed_query - bwd_i, seed_query + fwd_i,
            seed_subject - bwd_j, seed_subject + fwd_j, fwd + bwd)


def homolog_pair(seed):
    """A protein and a mutant of it: substitutions everywhere, and (two
    pairs in three) a few single-residue insertions and deletions."""
    rng = np.random.default_rng(seed)
    record = random_set(count=1, length=int(rng.integers(40, 90)),
                        alphabet=PROTEIN, rng=seed).records[0]
    indel_rate = seed % 3 * 0.04
    model = MutationModel(
        substitution_rate=float(rng.choice([0.05, 0.15, 0.3])),
        insertion_rate=indel_rate, deletion_rate=indel_rate,
    )
    return record.codes, mutate(record, model, rng=rng).codes


def aligned_pairs(result):
    """``(query position, subject position)`` of every residue pair on a
    traced-back local alignment."""
    pairs, qpos, spos = [], result.query_start, result.subject_start
    for q_char, s_char in zip(result.aligned_query, result.aligned_subject):
        if q_char != "-" and s_char != "-":
            pairs.append((qpos, spos))
        qpos += q_char != "-"
        spos += s_char != "-"
    return pairs


BANDWIDTHS = (0, 2, 8)
X_DROPS = (5.0, 25.0, 1e9)
PAIR_SEEDS = range(30)


class TestAgainstCellByCellReference:
    def test_coordinates_and_score_exact(self):
        for seed in PAIR_SEEDS:
            q, s = homolog_pair(seed)
            seeds = [(0, 0), (q.size - 1, s.size - 1),
                     (q.size // 2, min(s.size - 1, q.size // 2))]
            for bandwidth in BANDWIDTHS:
                for x_drop in X_DROPS:
                    for seed_q, seed_s in seeds:
                        ext = banded_extend(q, s, M, seed_q, seed_s,
                                            bandwidth=bandwidth, x_drop=x_drop)
                        want = reference_banded_extend(
                            q, s, M, seed_q, seed_s, bandwidth=bandwidth,
                            gap_open=11.0, gap_extend=1.0, x_drop=x_drop)
                        got = (ext.query_start, ext.query_end,
                               ext.subject_start, ext.subject_end, ext.score)
                        assert got == want, (seed, bandwidth, x_drop, seed_q)

    def test_other_gap_costs(self):
        for seed in PAIR_SEEDS[:10]:
            q, s = homolog_pair(seed)
            for gap_open, gap_extend in ((5.0, 2.0), (3.0, 3.0)):
                ext = banded_extend(q, s, M, q.size // 3, q.size // 3,
                                    bandwidth=4, gap_open=gap_open,
                                    gap_extend=gap_extend, x_drop=20.0)
                want = reference_banded_extend(
                    q, s, M, q.size // 3, q.size // 3, bandwidth=4,
                    gap_open=gap_open, gap_extend=gap_extend, x_drop=20.0)
                assert (ext.query_start, ext.query_end, ext.subject_start,
                        ext.subject_end, ext.score) == want, (seed, gap_open)


class TestAgainstSmithWaterman:
    def test_never_above_and_equal_inside_the_band(self):
        """A banded extension scores one real alignment through its seed,
        so never more than the unrestricted local optimum; seeded on that
        optimum's own path with X-drop out of the way, it must find it
        whenever the path stays within the band."""
        inside = {bandwidth: 0 for bandwidth in BANDWIDTHS}
        for seed in PAIR_SEEDS:
            q, s = homolog_pair(seed)
            optimum = smith_waterman(q, s, M)
            assert optimum.score == smith_waterman_score(q, s, M).score
            pairs = aligned_pairs(optimum)
            seed_q, seed_s = pairs[len(pairs) // 2]
            drift = max(abs((sp - qp) - (seed_s - seed_q)) for qp, sp in pairs)
            for bandwidth in BANDWIDTHS:
                for x_drop in X_DROPS:
                    ext = banded_extend(q, s, M, seed_q, seed_s,
                                        bandwidth=bandwidth, x_drop=x_drop)
                    assert ext.score <= optimum.score, (seed, bandwidth, x_drop)
                    if drift <= bandwidth and x_drop == 1e9:
                        inside[bandwidth] += 1
                        assert ext.score == optimum.score, (seed, bandwidth)
        # The generator must actually exercise both sides of the condition.
        assert 0 < inside[0] < inside[2] <= inside[8] <= len(PAIR_SEEDS)
        assert inside[8] > inside[0]


# -- the lockstep batch --------------------------------------------------------
# ``banded_extend`` with seed sequences extends every lane in one row loop.
# Each lane must come out exactly as it does alone — whatever else shares the
# loop, however early its neighbours terminate and get compacted away.


def as_tuple(ext):
    return (ext.query_start, ext.query_end, ext.subject_start,
            ext.subject_end, ext.score)


def mixed_batch(seed):
    """One query and lanes of very different lengths: its homolog seeded at
    ``(0, 0)`` (nothing before the seed), at the last residue pair (nothing
    after it) and mid-sequence; the homolog cut three residues past the seed
    (a remainder shorter than the band); a one-residue subject; and an
    unrelated subject, which X-drops within a few rows."""
    q, s = homolog_pair(seed)
    mid_q = q.size // 2
    mid_s = min(s.size - 1, mid_q)
    stranger = homolog_pair(seed + 1000)[1]
    subjects = [s, s, s, s[: mid_s + 3], s[:1], stranger]
    seeds = [(0, 0), (q.size - 1, s.size - 1), (mid_q, mid_s), (mid_q, mid_s),
             (mid_q, 0), (mid_q, min(stranger.size - 1, mid_q))]
    return q, subjects, [sq for sq, _ in seeds], [ss for _, ss in seeds]


@pytest.mark.chaos
class TestLockstepBatch:
    def test_batch_equals_one_anchor_equals_reference(self):
        for seed in PAIR_SEEDS:
            q, subjects, seed_q, seed_s = mixed_batch(seed)
            for bandwidth in BANDWIDTHS:
                for x_drop in X_DROPS:
                    batch = banded_extend(q, subjects, M, seed_q, seed_s,
                                          bandwidth=bandwidth, x_drop=x_drop)
                    assert len(batch) == len(subjects)
                    for lane, (s, sq, ss) in enumerate(
                            zip(subjects, seed_q, seed_s)):
                        where = (seed, bandwidth, x_drop, lane)
                        alone = banded_extend(q, s, M, sq, ss,
                                              bandwidth=bandwidth, x_drop=x_drop)
                        want = reference_banded_extend(
                            q, s, M, sq, ss, bandwidth=bandwidth,
                            gap_open=11.0, gap_extend=1.0, x_drop=x_drop)
                        assert as_tuple(batch[lane]) == want, where
                        assert batch[lane] == alone, where

    def test_result_is_independent_of_batch_composition(self):
        """Permuting, duplicating and dropping lanes changes which lanes are
        compacted away when; no surviving lane may notice.  The draws vary
        with ``CHAOS_SEED`` (the CI matrix knob)."""
        rng = np.random.default_rng(int(os.environ.get("CHAOS_SEED", "0")))
        for seed in PAIR_SEEDS[:12]:
            q, subjects, seed_q, seed_s = mixed_batch(seed)
            kw = dict(bandwidth=BANDWIDTHS[seed % 3], x_drop=X_DROPS[seed % 2])
            whole = banded_extend(q, subjects, M, seed_q, seed_s, **kw)
            for _ in range(4):
                # with replacement: some lanes twice, some not at all
                picks = rng.integers(0, len(subjects),
                                     int(rng.integers(1, 2 * len(subjects))))
                got = banded_extend(
                    q, [subjects[p] for p in picks], M,
                    [seed_q[p] for p in picks], [seed_s[p] for p in picks], **kw)
                assert got == [whole[p] for p in picks], (seed, picks)
            order = rng.permutation(len(subjects))
            got = banded_extend(
                q, [subjects[p] for p in order], M, np.array(seed_q)[order],
                np.array(seed_s)[order], **kw)
            assert got == [whole[p] for p in order], (seed, order)

    def test_batch_of_one_and_empty_batch(self):
        q, s = homolog_pair(3)
        alone = banded_extend(q, s, M, 10, 10)
        assert banded_extend(q, [s], M, [10], [10]) == [alone]
        assert banded_extend(q, [], M, [], []) == []

    def test_other_gap_costs(self):
        """Integer costs against the reference; a non-integer pair, where the
        reference's running gap sum rounds differently from the scan, only
        batch against alone."""
        for seed in PAIR_SEEDS[:10]:
            q, subjects, seed_q, seed_s = mixed_batch(seed)
            for gap_open, gap_extend in ((5.0, 2.0), (3.0, 3.0), (5.5, 0.7)):
                kw = dict(bandwidth=4, gap_open=gap_open,
                          gap_extend=gap_extend, x_drop=20.0)
                batch = banded_extend(q, subjects, M, seed_q, seed_s, **kw)
                for lane, (s, sq, ss) in enumerate(
                        zip(subjects, seed_q, seed_s)):
                    assert batch[lane] == banded_extend(q, s, M, sq, ss, **kw)
                    if gap_extend == int(gap_extend):
                        assert as_tuple(batch[lane]) == reference_banded_extend(
                            q, s, M, sq, ss, **kw), (seed, gap_open, lane)

    def test_dna_matrix(self):
        matrix = dna_matrix().astype(np.float64)
        rng = np.random.default_rng(5)
        q = rng.integers(0, 4, 90).astype(np.uint8)
        subjects, seed_q, seed_s = [], [], []
        for lane in range(6):
            s = q.copy()
            flips = rng.random(s.size) < 0.05 * (lane + 1)
            s[flips] = rng.integers(0, 4, int(flips.sum()))
            cut = int(rng.integers(0, 30))
            subjects.append(np.delete(s, cut)[: s.size - 5 * lane])
            seed_q.append(40)
            seed_s.append(39)
        kw = dict(bandwidth=3, gap_open=5.0, gap_extend=2.0, x_drop=12.0)
        batch = banded_extend(q, subjects, matrix, seed_q, seed_s, **kw)
        for lane, s in enumerate(subjects):
            assert as_tuple(batch[lane]) == reference_banded_extend(
                q, s, matrix, 40, 39, **kw), lane

    def test_split_batch_is_the_same_batch(self, monkeypatch):
        """The planes one pass allocates are bounded; a batch past the bound
        is extended in several passes with the same results."""
        q, subjects, seed_q, seed_s = mixed_batch(7)
        whole = banded_extend(q, subjects, M, seed_q, seed_s)
        passes = []
        lockstep = gapped._lockstep
        monkeypatch.setattr(
            gapped, "_lockstep",
            lambda lanes, *rest: passes.append(len(lanes)) or lockstep(lanes, *rest))
        # Room for three lanes a pass: anchors straddle pass boundaries.
        monkeypatch.setattr(gapped, "_PASS_BYTES",
                            3 * gapped._lane_bytes(q.size, 17))
        assert banded_extend(q, subjects, M, seed_q, seed_s) == whole
        assert passes == [3, 3, 3, 3]


# -- row blocks, inert lanes, lazy compaction ----------------------------------
# The kernel gathers ``_ROW_BLOCK`` rows of substitution scores at once (fewer
# when that passes ``_BLOCK_CELLS``), keeps a finished lane in the band
# (inert) and drops finished lanes only once they fill ``_DEAD_SHARE`` of it.
# None of that may reach a lane's result.


def lockstep(lanes, matrix=M, bandwidth=8, gap_open=11.0, gap_extend=1.0,
             x_drop=25.0):
    """The kernel on one-direction *lanes*, scored as ``banded_extend``
    scores them: ``(query_consumed, subject_consumed, score)`` a lane."""
    scores = np.full((matrix.shape[0], matrix.shape[1] + 1), gapped._NEG)
    scores[:, :-1] = matrix
    out = gapped._lockstep(lanes, scores, bandwidth, gap_open, gap_extend,
                           x_drop)
    return list(zip(*(part.tolist() for part in out)))


def reference_lanes(lanes, matrix=M, bandwidth=8, gap_open=11.0,
                    gap_extend=1.0, x_drop=25.0):
    return [reference_extend(q, s, matrix, bandwidth, gap_open, gap_extend,
                             x_drop) for q, s in lanes]


def dropping_lanes(rng, block, bandwidth=4, x_drop=10.0):
    """Lanes whose extension X-drops on the first row of a row block and on
    its last, past the first block: ``(first, last)`` lists.  Each is a query
    and its copy with the residues after a drawn point redrawn."""
    first, last = [], []
    q = rng.integers(0, 20, 90).astype(np.uint8)
    while len(first) < 4 or len(last) < 4:
        s = q.copy()
        cut = int(rng.integers(block, 70))
        s[cut:] = rng.integers(0, 20, s.size - cut)
        row = reference_rows(q, s, M, bandwidth, 11.0, 1.0, x_drop)[3]
        if row is None or row <= block:
            continue
        if row % block == 1 and len(first) < 4:
            first.append((q, s))
        elif row % block == 0 and len(last) < 4:
            last.append((q, s))
    return first, last


@pytest.mark.chaos
class TestRowBlocks:
    @pytest.mark.parametrize("block, cells", [
        (1, 4096), (3, 4096), (1000, 1 << 30), (16, 1)])
    def test_block_size_reaches_no_result(self, monkeypatch, block, cells):
        """One row a gather, a block that divides no lane's length, one
        block deeper than every lane, and a cell cap that leaves one row a
        gather all equal the reference."""
        monkeypatch.setattr(gapped, "_ROW_BLOCK", block)
        monkeypatch.setattr(gapped, "_BLOCK_CELLS", cells)
        for seed in PAIR_SEEDS[:10]:
            q, subjects, seed_q, seed_s = mixed_batch(seed)
            for bandwidth in BANDWIDTHS:
                for x_drop in X_DROPS:
                    batch = banded_extend(q, subjects, M, seed_q, seed_s,
                                          bandwidth=bandwidth, x_drop=x_drop)
                    for lane, (s, sq, ss) in enumerate(
                            zip(subjects, seed_q, seed_s)):
                        assert as_tuple(batch[lane]) == reference_banded_extend(
                            q, s, M, sq, ss, bandwidth=bandwidth,
                            gap_open=11.0, gap_extend=1.0, x_drop=x_drop), (
                            seed, bandwidth, x_drop, lane)

    @pytest.mark.parametrize("block", [3, 16])
    def test_drop_on_a_blocks_first_and_last_row(self, monkeypatch, block):
        """Lanes X-drop on the row a block is gathered for and on the last
        row it serves; half of them dropping compacts the band mid-block or
        right before the next gather."""
        monkeypatch.setattr(gapped, "_ROW_BLOCK", block)
        rng = np.random.default_rng(int(os.environ.get("CHAOS_SEED", "0")))
        first, last = dropping_lanes(rng, block)
        kw = dict(bandwidth=4, x_drop=10.0)
        for lanes in (first + last, last + first, first[:2] + last[:1]):
            assert lockstep(lanes, **kw) == reference_lanes(lanes, **kw)

    @pytest.mark.parametrize("dead, compactions", [(3, 0), (4, 1), (5, 1)])
    def test_compaction_threshold(self, monkeypatch, dead, compactions):
        """Eight lanes, *dead* of which X-drop on the same row: one short of
        half the band keeps every row, exactly half and one lane past it
        compact once (each compaction re-views the two code planes)."""
        views = []
        window = gapped.sliding_window_view
        monkeypatch.setattr(
            gapped, "sliding_window_view",
            lambda *a, **kw: views.append(1) or window(*a, **kw))
        rng = np.random.default_rng(int(os.environ.get("CHAOS_SEED", "0")))
        q = rng.integers(0, 20, 60).astype(np.uint8)
        stranger = rng.integers(0, 20, 60).astype(np.uint8)
        lanes = [(q, stranger)] * dead + [(q, q.copy())] * (8 - dead)
        order = rng.permutation(8)
        lanes = [lanes[p] for p in order]
        assert lockstep(lanes) == reference_lanes(lanes)
        assert len(views) == 2 * (1 + compactions)

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_dead_share_reaches_no_result(self, monkeypatch, share):
        """Compacting after every finish (the eager rule), at half the band,
        and never: the same lanes, the same results."""
        monkeypatch.setattr(gapped, "_DEAD_SHARE", share)
        for seed in PAIR_SEEDS[:12]:
            q, subjects, seed_q, seed_s = mixed_batch(seed)
            kw = dict(bandwidth=BANDWIDTHS[seed % 3], x_drop=X_DROPS[seed % 2])
            batch = banded_extend(q, subjects, M, seed_q, seed_s, **kw)
            for lane, (s, sq, ss) in enumerate(zip(subjects, seed_q, seed_s)):
                assert as_tuple(batch[lane]) == reference_banded_extend(
                    q, s, M, sq, ss, gap_open=11.0, gap_extend=1.0, **kw), (
                    seed, lane)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([1, 2, 5, 16]),
           cells=st.sampled_from([1, 40, 4096]),
           bandwidth=st.integers(0, 5),
           gap_open=st.integers(1, 12),
           gap_extend=st.integers(1, 4),
           x_drop=st.integers(0, 30))
    def test_random_integer_lanes(self, seed, block, cells, bandwidth,
                                  gap_open, gap_extend, x_drop):
        """Any integer scoring system, any lanes: exactly the reference."""
        rng = np.random.default_rng(seed)
        letters = int(rng.integers(2, 6))
        matrix = rng.integers(-6, 7, (letters, letters)).astype(np.float64)
        lanes = []
        for _ in range(int(rng.integers(1, 9))):
            q = rng.integers(0, letters, int(rng.integers(0, 40)))
            s = q.copy() if rng.random() < 0.5 else rng.integers(
                0, letters, int(rng.integers(0, 40)))
            flips = rng.random(s.size) < rng.random()
            s[flips] = rng.integers(0, letters, int(flips.sum()))
            lanes.append((q.astype(np.uint8), s.astype(np.uint8)))
        kw = dict(matrix=matrix, bandwidth=bandwidth, gap_open=float(gap_open),
                  gap_extend=float(gap_extend), x_drop=float(x_drop))
        with mock.patch.multiple(gapped, _ROW_BLOCK=block, _BLOCK_CELLS=cells):
            assert lockstep(lanes, **kw) == reference_lanes(lanes, **kw)

    def test_lane_bytes_bound_a_pass(self):
        """Past the numpy iterators' fixed buffers, a pass's peak grows by
        at most ``_lane_bytes`` a lane, so ``_PASS_BYTES`` bounds a pass."""
        rng = np.random.default_rng(1)
        q = rng.integers(0, 20, 400).astype(np.uint8)
        lanes = []
        for a in range(300):
            s = q.copy()
            flips = rng.random(q.size) < 0.05 * (a % 6)
            s[flips] = rng.integers(0, 20, int(flips.sum()))
            lanes.append((q, s))

        def peak(count):
            tracemalloc.start()
            try:
                lockstep(lanes[:count], x_drop=40.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(300) - peak(100) <= 200 * gapped._lane_bytes(q.size, 17)


class TestBatchValidation:
    def test_unequal_lengths(self):
        q, s = homolog_pair(1)
        with pytest.raises(ValueError, match="2 subjects, 1 seed_query"):
            banded_extend(q, [s, s], M, [3], [3, 4])
        with pytest.raises(ValueError, match="1 seed_subject"):
            banded_extend(q, [s, s], M, [3, 4], [3])

    def test_out_of_bounds_seed_names_the_lane(self):
        q, s = homolog_pair(1)
        with pytest.raises(ValueError, match=r"lane 2: seed_query -1 out of"):
            banded_extend(q, [s, s, s], M, [0, 1, -1], [0, 1, 2])
        with pytest.raises(ValueError,
                           match=rf"lane 1: seed_subject {s.size} out of"):
            banded_extend(q, [s, s, s], M, [0, 1, 2], [0, s.size, 2])

    def test_one_anchor_messages_name_no_lane(self):
        q, s = homolog_pair(1)
        with pytest.raises(ValueError, match=r"^seed_query 999 out of bounds$"):
            banded_extend(q, s, M, 999, 0)

    def test_subject_code_past_the_matrix_is_rejected(self):
        """The plane's sentinel is the first code the matrix has no column
        for; a subject carrying it must fail loudly, not end early."""
        q, s = homolog_pair(1)
        bad = s.copy()
        bad[5] = M.shape[1]
        with pytest.raises(ValueError, match="no column"):
            banded_extend(q, [s, bad], M, [0, 0], [0, 0])
        with pytest.raises(ValueError, match="no column"):
            banded_extend(q, bad, M, 0, 0)
