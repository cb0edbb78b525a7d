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
walk is vectorised with cumulative sums (no per-residue Python loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.result import Anchor


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


def _extension_extent(
    matches: np.ndarray, base_matches: int, base_length: int, threshold: float
) -> int:
    """How many residues of *matches* (scanned outward) the anchor absorbs
    before running identity first drops below *threshold*.

    ``matches`` is the outward boolean match array; the running identity
    after absorbing ``t`` residues is
    ``(base_matches + cumsum[t]) / (base_length + t)``.
    """
    if matches.size == 0:
        return 0
    cums = np.cumsum(matches, dtype=np.int64)
    lengths = base_length + np.arange(1, matches.size + 1)
    identity = (base_matches + cums) / lengths
    below = identity < threshold
    if below.any():
        return int(np.argmax(below))  # stop at first violation
    return int(matches.size)


def extend_anchor(
    query: np.ndarray,
    subject: np.ndarray,
    seq_id: str,
    query_start: int,
    query_end: int,
    subject_start: int,
    identity_threshold: float,
    matrix: np.ndarray,
) -> Anchor:
    """Extend the matched window in both directions along its diagonal.

    Parameters
    ----------
    query, subject:
        Full code arrays of the query and the subject reference sequence.
    query_start, query_end, subject_start:
        The matched window (the candidate block's span on the subject).
    identity_threshold:
        The paper's ``i`` parameter: extension stops once running identity
        first falls below it.
    matrix:
        Scoring matrix used to score the final anchor span.

    Returns the extended :class:`~repro.align.result.Anchor`.
    """
    query = np.asarray(query, dtype=np.uint8)
    subject = np.asarray(subject, dtype=np.uint8)
    window = query_end - query_start
    subject_end = subject_start + window
    if window <= 0:
        raise ValueError("anchor window must be non-empty")
    if query_end > query.shape[0] or subject_end > subject.shape[0]:
        raise ValueError("anchor window out of bounds")

    base = query[query_start:query_end] == subject[subject_start:subject_end]
    base_matches = int(base.sum())

    # Rightward residues (outward order).
    right_len = min(query.shape[0] - query_end, subject.shape[0] - subject_end)
    right = (
        query[query_end : query_end + right_len]
        == subject[subject_end : subject_end + right_len]
    )
    # Leftward residues (outward order = reversed slices).
    left_len = min(query_start, subject_start)
    left = (
        query[query_start - left_len : query_start][::-1]
        == subject[subject_start - left_len : subject_start][::-1]
    )

    right_keep = _extension_extent(right, base_matches, window, identity_threshold)
    matches_after_right = base_matches + int(right[:right_keep].sum())
    left_keep = _extension_extent(
        left, matches_after_right, window + right_keep, identity_threshold
    )

    new_q_start = query_start - left_keep
    new_q_end = query_end + right_keep
    new_s_start = subject_start - left_keep
    new_s_end = subject_end + right_keep
    span_q = query[new_q_start:new_q_end]
    span_s = subject[new_s_start:new_s_end]
    score = float(np.asarray(matrix)[span_q, span_s].sum())
    return Anchor(
        seq_id=seq_id,
        query_start=new_q_start,
        query_end=new_q_end,
        subject_start=new_s_start,
        subject_end=new_s_end,
        score=score,
    )
