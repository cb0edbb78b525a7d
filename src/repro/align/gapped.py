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
every anchor are lanes (rows) of one ``(A, 2*bandwidth + 1)`` band, one row
loop serves them all, and a lane that terminates is compacted away.  Each
lane performs the same elementwise operations in the same order whatever
else is in the batch, so a result does not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.align.smith_waterman import _scan_max_affine
from repro.util.validation import check_non_negative, check_positive

_NEG = -1e18  # effectively -inf but safe under arithmetic

#: Most bytes one lockstep pass allocates (code planes plus band rows); a
#: larger batch is extended in several passes, so a long query against many
#: subjects cannot move peak memory.
_PASS_BYTES = 4 << 20


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

    Lane *a* is row *a* of the band.  Its codes sit in two ``uint8`` planes,
    the subject's shifted right by ``bandwidth`` and padded with the sentinel
    code (the last column of *scores*, all ``_NEG``), so row ``i`` reads
    plane columns ``i-1 .. i-1+width`` in every lane and "outside the
    subject" is the mask ``code == sentinel``.  A lane that X-drops or runs
    out of rows writes its result and is compacted away.
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
    s_plane = np.full((count, depth + 2 * bandwidth), sentinel, dtype=np.uint8)
    copied = 0
    for a, ((q, s), r) in enumerate(zip(lanes, rows.tolist())):
        q_plane[a, :r] = q[:r]
        # Row r, the lane's last, ends at subject column r + bandwidth.
        reach = min(s.shape[0], r + bandwidth)
        s_plane[a, bandwidth : bandwidth + reach] = s[:reach]
        copied += reach
    if np.count_nonzero(s_plane == sentinel) != s_plane.size - copied:
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
    h_prev = np.where(j <= subject_len[:, None], border, _NEG)
    f_prev = np.full((count, width), _NEG)
    diag, f, h_no_e, h, scan_buf = np.empty((5, count, width))

    # Results by lane; everything below them is the live lanes' state and
    # shrinks as lanes finish (``lane`` says which lane each live row is).
    consumed_q = np.zeros(count, dtype=np.int64)
    consumed_s = np.zeros(count, dtype=np.int64)
    score = np.zeros(count)
    lane = np.arange(count)
    best_i, best_j, best = consumed_q.copy(), consumed_s.copy(), score.copy()
    alive = rows > 0
    i = 0
    while True:
        if np.count_nonzero(alive) < lane.size:
            dead = ~alive
            done = lane[dead]
            consumed_q[done] = best_i[dead]
            consumed_s[done] = best_j[dead]
            score[done] = best[dead]
            lane, rows, best_i, best_j, best, h_prev, f_prev, q_plane, s_plane = (
                state[alive] for state in (
                    lane, rows, best_i, best_j, best, h_prev, f_prev,
                    q_plane, s_plane)
            )
            diag, f, h_no_e, h, scan_buf = (
                scratch[: lane.size] for scratch in (diag, f, h_no_e, h, scan_buf)
            )
        if lane.size == 0:
            return consumed_q, consumed_s, score
        i += 1

        # Band position b in row i covers subject column j = i + b - bandwidth,
        # whose code is plane column i + b - 1.
        cols = s_plane[:, i - 1 : i - 1 + width]
        np.add(h_prev, scores[q_plane[:, i - 1, None], cols], out=diag)
        # f = max(h_prev[b+1] - open, f_prev[b+1] - extend)
        np.maximum(h_prev[:, 1:] - gap_open, f_prev[:, 1:] - gap_extend,
                   out=f[:, :-1])
        f[:, -1] = _NEG

        np.maximum(diag, f, out=h_no_e)
        np.subtract(h_no_e, gap_open, out=h)  # reuse h as scan input
        scanned = _scan_max_affine(h, gap_extend, out=scan_buf)
        np.maximum(h_no_e[:, 1:], scanned[:, :-1], out=h[:, 1:])
        h[:, 0] = h_no_e[:, 0]
        # Valid subject columns are 1..m (column 0 is the gap border).
        np.copyto(h, _NEG, where=cols == sentinel)
        # j == 0 with i > 0 means a pure gap in the subject.
        if i <= bandwidth:
            h[:, bandwidth - i] = -gap_open - gap_extend * (i - 1)

        b_best = h.argmax(axis=1)
        row_best = h.max(axis=1)
        better = row_best > best
        np.copyto(best, row_best, where=better)
        best_i[better] = i
        np.copyto(best_j, b_best + (i - bandwidth), where=better)
        floor = best - x_drop
        alive = (row_best >= floor) & (rows > i)
        # X-drop inside the band: cells far below best cannot recover more
        # than x_drop, prune them.
        np.copyto(h, _NEG, where=h < floor[:, None])
        h_prev, h = h, h_prev
        f_prev, f = f, f_prev


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
    # A lane takes two code-plane rows of at most len(query) bytes and nine
    # float rows of the band.
    per_pass = max(
        1, _PASS_BYTES // (2 * query.shape[0] + 72 * (2 * bandwidth + 1))
    )
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
