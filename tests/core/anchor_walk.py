"""Section V-B's anchor extension one anchor at a time — the test oracle.

This is the walk ``repro.core.anchors.extend_anchor`` ran per survivor
until it became one call over all the survivors of a node-subquery: the
matched window, its outward match arrays on the record's own codes, a
cumulative sum per side (right first, then left from where the right side
stopped), and the span scored under the matrix.  The batched kernel must
reproduce every anchor exactly (``tests/core/test_anchors.py``).
"""

from __future__ import annotations

import numpy as np

from repro.align.result import Anchor


def extension_extent(
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


def extend_one(
    query: np.ndarray,
    subject: np.ndarray,
    seq_id: str,
    query_start: int,
    query_end: int,
    subject_start: int,
    identity_threshold: float,
    matrix: np.ndarray,
) -> Anchor:
    """Extend one matched window in both directions along its diagonal;
    *subject* is the one reference sequence the window lies on."""
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

    right_keep = extension_extent(right, base_matches, window, identity_threshold)
    matches_after_right = base_matches + int(right[:right_keep].sum())
    left_keep = extension_extent(
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
