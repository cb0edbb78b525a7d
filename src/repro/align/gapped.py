"""Banded gapped extension (Gapped BLAST style; paper section V-B).

From an anchor's seed point the alignment is extended forward and backward
with affine-gap dynamic programming restricted to a band of ``bandwidth``
diagonals either side of the anchor's diagonal — the paper's ``l`` query
parameter ("the gapped extension considers all anchors from the same
sequence within l diagonals in either direction").  An X-drop criterion
terminates each direction once every cell of the current row falls more than
``x_drop`` below the best score seen.

The DP is banded: each row holds ``2*bandwidth + 1`` cells.  The row loop is
Python, so what it costs is interpreter dispatch per row, not arithmetic — and
every extension of a batch therefore runs in *lockstep*: both directions of
every anchor are lanes (rows) of one ``(A, 2*bandwidth + 1)`` band, and one
row loop serves them all.  Each lane performs the same elementwise
operations in the same order whatever else is in the batch, so a result does
not depend on its batch.

A row costs about twenty numpy calls on the ``(lanes, width)`` band, each
writing into a buffer the loop owns:

* the substitution scores are gathered for ``_ROW_BLOCK`` rows at once (one
  fancy index over a sliding window of the subject plane; fewer rows on a
  band wider than ``_BLOCK_CELLS`` allows), so a row reads a basic slice;
* the affine gap-in-query scan is one running maximum
  (:func:`~repro.align.smith_waterman._scan_max_affine`, three calls);
* the cells that are always minus infinity (f's last column, e's first) stay
  so in their buffers instead of being written every row, and a lane's last
  row is looked for only once the earliest of them comes;
* a lane that finishes writes its result at once and stays in the band,
  inert; finished lanes are compacted away only once they fill
  ``_DEAD_SHARE`` of it, so a batch whose spurious anchors die a few at a
  time does not copy the band at every death.

On integer scores and gap costs (every matrix and cost the engine uses)
each lane equals the cell-by-cell recurrence exactly; on non-integer gap
costs the scan may round differently in the last bit, the same in a batch
as alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.align.smith_waterman import _scan_max_affine
from repro.util.validation import check_non_negative, check_positive

_NEG = -1e18  # effectively -inf but safe under arithmetic

#: Most bytes one lockstep pass allocates (:func:`_lane_bytes` a lane); a
#: larger batch is extended in several passes, so a long query against many
#: subjects cannot move peak memory.
_PASS_BYTES = 4 << 20
#: Rows of substitution scores one gather fetches for the whole band ...
_ROW_BLOCK = 16
#: ... or fewer, so that a block holds at most this many cells (or one row
#: of a band wider than that) however many lanes the batch has.
_BLOCK_CELLS = 4096
#: Share of the band's rows finished lanes may hold before they are dropped.
_DEAD_SHARE = 0.5


@dataclass(frozen=True)
class GappedExtension:
    """Result of a two-directional banded gapped extension.

    Coordinates are absolute over the full query/subject; ``score`` is the
    summed DP score of both directions (the seed residue pair is scored in
    the forward pass).
    """

    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    score: float


def diagonal_identity(query: np.ndarray, subject: np.ndarray, extent) -> float:
    """Identity estimate along the dominant diagonal of *extent* — anything
    with the four ``query_*`` / ``subject_*`` coordinates (a
    :class:`GappedExtension`, an anchor)."""
    span = min(extent.query_end - extent.query_start,
               extent.subject_end - extent.subject_start)
    if span <= 0:
        return 0.0
    q = query[extent.query_start : extent.query_start + span]
    s = subject[extent.subject_start : extent.subject_start + span]
    return float((q == s).sum()) / span


def _lane_bytes(query_len: int, width: int) -> int:
    """Most bytes one lane holds in a :func:`_lockstep` pass: three byte rows
    of the code planes (query codes, subject codes, outside flags; at most
    ``query_len`` columns plus the band's), six float rows of the band (one
    a column wider) and a byte row of pruned cells, two gathered blocks of
    at most ``_ROW_BLOCK`` rows of scores (the next is built while the last
    is held) and sixteen numbers of lane state."""
    return (3 * (query_len + width) + 8 * (6 * width + 1) + width
            + 16 * _ROW_BLOCK * width + 16 * 8)


def _lockstep(
    lanes: list[tuple[np.ndarray, np.ndarray]],
    scores: np.ndarray,
    bandwidth: int,
    gap_open: float,
    gap_extend: float,
    x_drop: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded affine extension of every ``(query, subject)`` lane from its
    position 0; returns the ``(query_consumed, subject_consumed, score)``
    arrays.

    Unlike local alignment, scores may go negative (extension semantics);
    the X-drop rule prunes hopeless rows.

    Lane *a* starts as row *a* of the band.  Its codes sit in two ``uint8``
    planes, the subject's shifted right by ``bandwidth`` and padded with the
    sentinel code (the last column of *scores*, all ``_NEG``), so row ``i``
    reads plane columns ``i-1 .. i-1+width`` in every lane and "outside the
    subject" is the flag ``code == sentinel``.  A lane that X-drops or runs
    out of rows writes its result and stays in the band, inert: its drop
    becomes infinite and its last row never comes.  Inert rows are compacted
    away once they fill ``_DEAD_SHARE`` of the band.
    """
    count = len(lanes)
    width = 2 * bandwidth + 1
    subject_len = np.array([s.shape[0] for _, s in lanes])
    # Past row m + bandwidth a lane's band has left its subject behind: no
    # cell is valid and the best cannot improve.
    rows = np.minimum([q.shape[0] for q, _ in lanes], subject_len + bandwidth)
    depth = int(rows.max())
    sentinel = scores.shape[1] - 1
    q_plane = np.zeros((count, depth), dtype=np.uint8)
    # (one column more than row depth reads, so an empty pass has a window)
    s_plane = np.full((count, depth + width), sentinel, dtype=np.uint8)
    copied = 0
    for a, ((q, s), r) in enumerate(zip(lanes, rows.tolist())):
        q_plane[a, :r] = q[:r]
        # Row r, the lane's last, ends at subject column r + bandwidth.
        reach = min(s.shape[0], r + bandwidth)
        s_plane[a, bandwidth : bandwidth + reach] = s[:reach]
        copied += reach
    outside = s_plane == sentinel
    if np.count_nonzero(outside) != outside.size - copied:
        # (a larger code fails the score lookup below, as it always has)
        raise ValueError(
            f"subject code {sentinel} has no column in the "
            f"{scores.shape[0]}x{sentinel} scoring matrix"
        )

    # Row 0: aligning zero query residues against j subject residues (a pure
    # gap in the query).  Band position b corresponds to j = b - bandwidth.
    j = np.arange(width) - bandwidth
    border = np.full(width, _NEG)
    border[bandwidth] = 0.0
    border[bandwidth + 1 :] = -gap_open - gap_extend * (j[bandwidth + 1 :] - 1)
    # h and f of rows i - 1 and i sit at [(i - 1) % 2] and [i % 2].  Nothing
    # writes f's last column or e's first: they stay _NEG.
    h_rows = np.empty((2, count, width))
    h_rows[0] = np.where(j <= subject_len[:, None], border, _NEG)
    f_rows = np.full((2, count, width), _NEG)
    e = np.full((count, width + 1), _NEG)
    h_no_e = np.empty((count, width))

    # Results by lane; everything below them is the band's state, one row
    # per lane still in it (``lane`` says which).  The best cell of row i at
    # band position b is subject column i + b - bandwidth.
    consumed_q = np.zeros(count, dtype=np.int64)
    consumed_s = np.zeros(count, dtype=np.int64)
    score = np.zeros(count)
    lane = np.arange(count)
    best_i = np.zeros(count, dtype=np.int64)
    best_b = np.full(count, bandwidth)
    best = np.zeros(count)
    drop = np.full(count, float(x_drop))
    never = depth + 1
    live = count
    next_end = 0  # no live lane ends before this row
    dropped = None
    reshaped = True
    block_end = 0  # the rows up to this one are gathered
    i = 0
    while True:
        done = rows <= i if i >= next_end else None
        if dropped is not None:
            done = dropped if done is None else done | dropped
        if done is not None:
            finished = lane[done]
            consumed_q[finished] = best_i[done]
            consumed_s[finished] = best_i[done] + best_b[done] - bandwidth
            score[finished] = best[done]
            live -= finished.size
            if live == 0:
                return consumed_q, consumed_s, score
            drop[done] = np.inf
            rows[done] = never
            if lane.size - live >= _DEAD_SHARE * lane.size:
                keep = rows < never
                (lane, rows, best_i, best_b, best, drop, q_plane, s_plane,
                 outside) = (
                    state[keep] for state in (
                        lane, rows, best_i, best_b, best, drop, q_plane,
                        s_plane, outside)
                )
                h_rows, f_rows = h_rows[:, keep], f_rows[:, keep]
                e, h_no_e = e[:live], h_no_e[:live]
                if i < block_end:
                    block = block[keep]
                reshaped = True
            next_end = int(rows.min())
        if reshaped:
            # Row i's codes and outside flags are codes[:, i - 1] and
            # flags[:, i - 1]; each row buffer goes with the column slices
            # the recurrences read.
            codes, flags = (sliding_window_view(plane, width, axis=1)
                            for plane in (s_plane, outside))
            h_sliced, f_sliced = (
                [(x, x[:, 1:], x[:, :-1]) for x in buffers]
                for buffers in (h_rows, f_rows))
            e_tail, e_head = e[:, 1:], e[:, :-1]
            reshaped = False
        i += 1

        if i > block_end:
            # Band position b in row i covers subject column
            # j = i + b - bandwidth, whose code is plane column i + b - 1.
            span = max(1, min(_ROW_BLOCK, _BLOCK_CELLS // (lane.size * width)))
            block_start, block_end = i, min(i - 1 + span, depth)
            block = scores[q_plane[:, i - 1 : block_end, None],
                           codes[:, i - 1 : block_end]]
        k = i - block_start
        h_prev, h_prev_tail, _ = h_sliced[(i - 1) & 1]
        h, _, h_head = h_sliced[i & 1]
        _, f_prev_tail, _ = f_sliced[(i - 1) & 1]
        f, _, f_head = f_sliced[i & 1]
        np.add(h_prev, block[:, k], out=h_no_e)
        # f = max(h_prev[b+1] - open, f_prev[b+1] - extend), h as scratch
        np.subtract(h_prev_tail, gap_open, out=h_head)
        np.subtract(f_prev_tail, gap_extend, out=f_head)
        np.maximum(h_head, f_head, out=f_head)
        np.maximum(h_no_e, f, out=h_no_e)
        # e[b + 1] = max over b' <= b of h_no_e[b'] - open - extend*(b - b')
        _scan_max_affine(h_no_e, gap_extend, out=e_tail, gap_open=gap_open)
        np.maximum(h_no_e, e_head, out=h)
        # Valid subject columns are 1..m (column 0 is the gap border).
        np.copyto(h, _NEG, where=flags[:, i - 1])
        # j == 0 with i > 0 means a pure gap in the subject.
        if i <= bandwidth:
            h[:, bandwidth - i] = -gap_open - gap_extend * (i - 1)

        b_best = h.argmax(axis=1)
        row_best = np.maximum.reduce(h, axis=1)
        better = np.greater(row_best, best)
        np.copyto(best, row_best, where=better)
        np.copyto(best_i, i, where=better)
        np.copyto(best_b, b_best, where=better)
        floor = np.subtract(best, drop)
        dropped = np.less(row_best, floor)
        if not np.count_nonzero(dropped):
            dropped = None
        # X-drop inside the band: cells far below best cannot recover more
        # than x_drop, prune them.
        np.copyto(h, _NEG, where=np.less(h, floor[:, None]))


def banded_extend(
    query: np.ndarray,
    subject: "np.ndarray | Sequence[np.ndarray]",
    matrix: np.ndarray,
    seed_query: "int | Sequence[int]",
    seed_subject: "int | Sequence[int]",
    bandwidth: int = 8,
    gap_open: float = 11.0,
    gap_extend: float = 1.0,
    x_drop: float = 25.0,
) -> "GappedExtension | list[GappedExtension]":
    """Gapped-extend *query* from the seed pair ``(seed_query, seed_subject)``.

    With scalar seeds *subject* is one code vector and the result one
    :class:`GappedExtension`; with seed sequences *subject* is a sequence of
    code vectors of the same length and the result a list in that order
    (the one-anchor form is a batch of one).  A bad seed in a batch raises
    ``ValueError`` naming its position (``lane i``).

    The forward pass starts *at* the seed pair (scoring it) and the backward
    pass starts just before it, so the seed is counted exactly once.
    """
    check_non_negative("bandwidth", bandwidth)
    check_positive("gap_open", gap_open)
    check_positive("gap_extend", gap_extend)
    check_non_negative("x_drop", x_drop)
    query = np.asarray(query, dtype=np.uint8)
    matrix = np.asarray(matrix, dtype=np.float64)
    batched = np.ndim(seed_query) > 0
    if not batched:
        subject, seed_query, seed_subject = [subject], [seed_query], [seed_subject]
    if not len(subject) == len(seed_query) == len(seed_subject):
        raise ValueError(
            f"{len(subject)} subjects, {len(seed_query)} seed_query and "
            f"{len(seed_subject)} seed_subject: one of each per lane"
        )
    seeds = [(int(sq), int(ss)) for sq, ss in zip(seed_query, seed_subject)]
    lanes = []
    for a, (codes, (seed_q, seed_s)) in enumerate(zip(subject, seeds)):
        codes = np.asarray(codes, dtype=np.uint8)
        where = f"lane {a}: " if batched else ""
        if not 0 <= seed_q < query.shape[0]:
            raise ValueError(f"{where}seed_query {seed_q} out of bounds")
        if not 0 <= seed_s < codes.shape[0]:
            raise ValueError(f"{where}seed_subject {seed_s} out of bounds")
        lanes.append((query[seed_q:], codes[seed_s:]))
        lanes.append((query[:seed_q][::-1], codes[:seed_s][::-1]))
    if not lanes:
        return []

    scores = np.full((matrix.shape[0], matrix.shape[1] + 1), _NEG)
    scores[:, :-1] = matrix
    per_pass = max(
        1, _PASS_BYTES // _lane_bytes(query.shape[0], 2 * bandwidth + 1))
    passes = [
        _lockstep(lanes[start : start + per_pass], scores, bandwidth,
                  gap_open, gap_extend, x_drop)
        for start in range(0, len(lanes), per_pass)
    ]
    consumed_q, consumed_s, score = (
        np.concatenate(part).tolist() for part in zip(*passes)
    )
    # Lane 2a is anchor a's forward pass, lane 2a + 1 its backward pass.
    extensions = [
        GappedExtension(
            query_start=seed_q - consumed_q[fwd + 1],
            query_end=seed_q + consumed_q[fwd],
            subject_start=seed_s - consumed_s[fwd + 1],
            subject_end=seed_s + consumed_s[fwd],
            score=score[fwd] + score[fwd + 1],
        )
        for (seed_q, seed_s), fwd in zip(seeds, range(0, len(lanes), 2))
    ]
    return extensions if batched else extensions[0]
