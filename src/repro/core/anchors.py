"""Candidate scoring and anchor extension (paper section V-B).

For every k-NN candidate block a node computes two filter measures — the
paper one candidate at a time, ours for all the candidates of a node-subquery
in one :func:`evaluate_candidate` call over their stacked codes:

* **percent identity** — ``matches / candidate_length`` (exact residue
  matches, the paper's Hamming-based measure);
* **consecutivity score (c-score)** — "the percent of those matches that are
  in succession": the fraction of matching positions that belong to a run of
  at least two.  For protein data, substitutions scored positive by the
  scoring matrix count as matches for succession purposes.

Survivors become anchors and are lengthened residue-by-residue through the
blocks' neighbour references — "starting with the segment previous to the
match, the sequence is incrementally extended until the extension
deteriorates the score of a match below the threshold".  The incremental
walk is vectorised with cumulative sums: all the survivors of a
node-subquery in one :func:`extend_anchor` call, their walks laid end to end
(no per-residue or per-anchor Python loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Residues one pass of :func:`extend_anchor` walks at most (a larger batch
#: runs as several passes; an anchor is never split).  A constant, like the
#: gapped kernel's pass bound: the many survivors of a long query cannot
#: move peak RSS.
_PASS_RESIDUES = 1 << 16


@dataclass(frozen=True)
class CandidateScore:
    """Filter measures of one k-NN candidate, or ``(C,)`` arrays of them."""

    identity: float | np.ndarray
    c_score: float | np.ndarray


def match_mask(
    query_window: np.ndarray,
    candidate: np.ndarray,
    matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Positions counting as matches for succession purposes.

    Exact matches always count; with a *matrix*, positively scored
    substitutions count too (the BLOSUM62 rule of section V-B).
    """
    query_window = np.asarray(query_window, dtype=np.uint8)
    candidate = np.asarray(candidate, dtype=np.uint8)
    if query_window.shape != candidate.shape:
        raise ValueError(
            f"shape mismatch {query_window.shape} vs {candidate.shape}"
        )
    exact = query_window == candidate
    if matrix is None:
        return exact
    positive = np.asarray(matrix)[query_window, candidate] > 0
    return exact | positive


def consecutivity_score(mask: np.ndarray) -> float | np.ndarray:
    """Fraction of matching positions that sit in a run of length >= 2
    (0.0 where nothing matches): a float for one ``(L,)`` mask, a ``(C,)``
    array for a ``(C, L)`` stack."""
    mask = np.asarray(mask, dtype=bool)
    beside = np.zeros_like(mask)
    beside[..., 1:] = mask[..., :-1]
    beside[..., :-1] |= mask[..., 1:]
    # No match means nothing in a run either: 0 / 1.
    score = (mask & beside).sum(axis=-1) / np.maximum(mask.sum(axis=-1), 1)
    return float(score) if mask.ndim == 1 else score


def evaluate_candidate(
    query_window: np.ndarray,
    candidate: np.ndarray,
    matrix: np.ndarray | None = None,
) -> CandidateScore:
    """Both filter measures for one candidate block against its window
    (``(L,)`` each) or, row by row, for a ``(C, L)`` stack of candidates
    against the stack of their windows: the same integer counts divided the
    same way, so row ``j`` is exactly the one-pair call on row ``j``."""
    query_window = np.asarray(query_window, dtype=np.uint8)
    candidate = np.asarray(candidate, dtype=np.uint8)
    if candidate.shape[-1] == 0:
        raise ValueError("candidate must be non-empty")
    identity = (query_window == candidate).sum(axis=-1) / candidate.shape[-1]
    c_score = consecutivity_score(match_mask(query_window, candidate, matrix))
    return CandidateScore(
        float(identity) if candidate.ndim == 1 else identity, c_score
    )


def max_mismatches(width: int, identity: float) -> int:
    """The largest ``x`` with ``(width - x) / width >= identity`` (<= 1), the
    filter's own comparison: the most mismatches a passer can have (``int((1
    - identity) * width)`` is 0 at w 10, i 0.9, where 9 matches of 10 pass)."""
    return next(x for x in range(width, -1, -1) if (width - x) / width >= identity)


class Extension(NamedTuple):
    """What one :func:`extend_anchor` call returns: ``(A,)`` arrays, one
    entry per anchor in call order.  Subject positions are in the
    coordinates of the ``subject`` array the call was given."""

    query_start: np.ndarray
    query_end: np.ndarray
    subject_start: np.ndarray
    score: np.ndarray


def _walk(query, subject, query_from, subject_from, step, room, base_matches,
          base_length, threshold):
    """One outward walk for every anchor at once: from ``query_from`` /
    ``subject_from`` in direction *step* (+1 right, -1 left), how many of
    its ``room`` residues each anchor absorbs before its running identity
    ``(base_matches + matches so far) / (base_length + residues so far)``
    first drops below *threshold*, and how many of those matched.

    The walks are laid end to end (anchor ``a``'s residue ``t`` at
    ``offset[a] + t``), so the work is the residues walked, not anchors
    times the longest walk."""
    kept = room.copy()
    kept_matches = np.zeros_like(room)
    total = int(room.sum())
    if total == 0:
        return kept, kept_matches
    offset = np.cumsum(room) - room
    lane = np.repeat(np.arange(room.size), room)
    t = np.arange(total) - offset[lane]
    matches = np.cumsum(
        query[query_from[lane] + step * t] == subject[subject_from[lane] + step * t],
        dtype=np.int64,
    )
    # running matches within each anchor's own walk
    matches -= np.where(offset > 0, matches[offset - 1], 0)[lane]
    below = (base_matches[lane] + matches) / (base_length[lane] + t + 1) < threshold
    violation = np.flatnonzero(below)
    first = violation[np.diff(lane[violation], prepend=-1) != 0]
    kept[lane[first]] = t[first]  # stop at each anchor's first violation
    absorbed = np.flatnonzero(kept)
    kept_matches[absorbed] = matches[offset[absorbed] + kept[absorbed] - 1]
    return kept, kept_matches


def extend_anchor(
    query: np.ndarray,
    subject: np.ndarray,
    query_start,
    subject_start,
    subject_bounds,
    width: int,
    identity_threshold: float,
    matrix: np.ndarray,
) -> Extension:
    """Extend matched windows in both directions along their diagonals.

    Every anchor of a node-subquery in one call (the paper's walk is per
    candidate; the arithmetic per anchor is the same, so each result is
    exactly what that anchor's own walk gives).

    Parameters
    ----------
    query:
        Full code array of the query.
    subject:
        Codes of the subjects, end to end.
    query_start, subject_start:
        ``(A,)`` starts of the matched windows (the candidate blocks' spans),
        ``width`` residues each.
    subject_bounds:
        ``(lo, hi)`` arrays: anchor ``a``'s subject is
        ``subject[lo[a]:hi[a]]`` and its walk stays inside it.
    identity_threshold:
        The paper's ``i`` parameter: extension stops once running identity
        first falls below it — rightward first, then leftward from where the
        right side stopped.
    matrix:
        Scoring matrix used to score the final anchor spans (integer
        matrices sum exactly).
    """
    query = np.asarray(query, dtype=np.uint8)
    subject = np.asarray(subject, dtype=np.uint8)
    q_start = np.atleast_1d(np.asarray(query_start, dtype=np.int64))
    s_start = np.atleast_1d(np.asarray(subject_start, dtype=np.int64))
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=np.int64)) for b in subject_bounds)
    if width <= 0:
        raise ValueError("anchor window must be non-empty")
    q_end, s_end = q_start + width, s_start + width
    if ((q_start < 0) | (q_end > query.shape[0]) | (s_start < lo)
            | (s_end > hi)).any():
        raise ValueError("anchor window out of bounds")

    right_room = np.minimum(query.shape[0] - q_end, hi - s_end)
    left_room = np.minimum(q_start, s_start - lo)
    # A pass starts where the residues walked before an anchor cross a
    # multiple of the pass size.
    size = right_room + left_room + width
    crossed = np.diff((np.cumsum(size) - size) // _PASS_RESIDUES)
    edges = [0, *(np.flatnonzero(crossed) + 1).tolist(), size.size]
    passes = [
        _extend(query, subject, q_start[a:b], s_start[a:b], right_room[a:b],
                left_room[a:b], width, identity_threshold, matrix)
        for a, b in zip(edges, edges[1:])
    ]
    return Extension(*(np.concatenate(column) for column in zip(*passes)))


def _extend(query, subject, q_start, s_start, right_room, left_room, width,
            threshold, matrix):
    """One pass of :func:`extend_anchor`: ``(query start, query end,
    subject start, score)`` arrays of the extended anchors."""
    offsets = np.arange(width)
    base = (query[q_start[:, None] + offsets]
            == subject[s_start[:, None] + offsets]).sum(axis=1)
    q_end, s_end = q_start + width, s_start + width
    right, right_matches = _walk(
        query, subject, q_end, s_end, 1, right_room,
        base, np.full_like(base, width), threshold,
    )
    left, _ = _walk(
        query, subject, q_start - 1, s_start - 1, -1, left_room,
        base + right_matches, width + right, threshold,
    )
    q_start, s_start, q_end = q_start - left, s_start - left, q_end + right

    span = q_end - q_start
    if not span.size:
        return q_start, q_end, s_start, np.zeros(0, dtype=np.int64)
    first = np.cumsum(span) - span
    step = np.arange(int(span.sum())) - np.repeat(first, span)
    values = np.asarray(matrix)[query[np.repeat(q_start, span) + step],
                                subject[np.repeat(s_start, span) + step]]
    values = values.astype(
        np.int64 if np.issubdtype(values.dtype, np.integer) else np.float64
    )
    return q_start, q_end, s_start, np.add.reduceat(values, first)
