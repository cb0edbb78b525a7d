"""Smith–Waterman local alignment with affine gaps (Gotoh recurrences).

The reference-quality aligner used (a) to score final gapped alignments, and
(b) as the ground truth the property tests compare the banded extension
against.  The dynamic programme loops over query rows but is vectorised
across subject columns within each row, so the inner work is numpy-level.

Recurrences (match ``H``, gap-in-query ``E``, gap-in-subject ``F``)::

    E[i][j] = max(H[i][j-1] - open, E[i][j-1] - extend)
    F[i][j] = max(H[i-1][j] - open, F[i-1][j] - extend)
    H[i][j] = max(0, H[i-1][j-1] + s(q_i, s_j), E[i][j], F[i][j])

``E`` has an intra-row dependency; it is resolved with the standard
prefix-scan trick (a logarithmic number of shifted maxima) so no Python
loop over columns is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive


@dataclass(frozen=True)
class LocalAlignmentResult:
    """Best local alignment between two sequences.

    Coordinates are half-open; ``aligned_query``/``aligned_subject`` are the
    gapped strings when traceback was requested (empty otherwise).
    """

    score: float
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    identity: float = 0.0
    gaps: int = 0
    aligned_query: str = ""
    aligned_subject: str = ""


def _scan_max_affine(
    values: np.ndarray, extend: float, out: np.ndarray | None = None
) -> np.ndarray:
    """For each j return ``max_{k<=j}(values[k] - extend*(j-k))`` along the
    last axis (every leading index is its own independent scan).

    This is the affine-gap prefix scan: computed in O(n log n) with doubling
    shifts, all vectorised.  Pass *out* to reuse a scratch buffer on hot
    paths (it must not alias *values*).
    """
    if out is None:
        result = values.copy()
    else:
        result = out
        np.copyto(result, values)
    n = result.shape[-1]
    shift = 1
    while shift < n:
        # result[shift:] = max(result[shift:], result[:-shift] - extend*shift).
        # The read slice is the pre-step value only through the subtraction
        # temporary, so this is the standard Jacobi doubling update.
        tail = result[..., shift:]
        np.maximum(tail, result[..., :-shift] - extend * shift, out=tail)
        shift *= 2
    return result


def smith_waterman_score(
    query: np.ndarray,
    subject: np.ndarray,
    matrix: np.ndarray,
    gap_open: float = 11.0,
    gap_extend: float = 1.0,
) -> LocalAlignmentResult:
    """Score-only affine Smith–Waterman (no traceback) in O(nm) time,
    O(m) memory; returns the best score and its end coordinates."""
    check_positive("gap_open", gap_open)
    check_positive("gap_extend", gap_extend)
    if gap_open < gap_extend:
        # The row-wise prefix-scan formulation below assumes opening a gap is
        # never cheaper than extending one (true for every standard scheme).
        raise ValueError(
            f"gap_open ({gap_open}) must be >= gap_extend ({gap_extend})"
        )
    query = np.asarray(query, dtype=np.uint8)
    subject = np.asarray(subject, dtype=np.uint8)
    matrix = np.asarray(matrix, dtype=np.float64)
    n, m = query.shape[0], subject.shape[0]
    if n == 0 or m == 0:
        return LocalAlignmentResult(0.0, 0, 0, 0, 0)

    prev_h = np.zeros(m + 1, dtype=np.float64)
    prev_f = np.full(m + 1, -np.inf, dtype=np.float64)
    best = 0.0
    best_i = best_j = 0
    for i in range(1, n + 1):
        sub_scores = matrix[query[i - 1], subject]  # (m,)
        diag = prev_h[:-1] + sub_scores
        f = np.maximum(prev_h[1:] - gap_open, prev_f[1:] - gap_extend)
        # H without E, then fold in E via the prefix scan over this row.
        h_no_e = np.maximum(0.0, np.maximum(diag, f))
        # E[j] = max_{k <= j-1} (H[k] - open - extend*(j-1-k)).  Seeding the
        # scan with H-no-E is sufficient: chaining E off an H that itself
        # came from E is dominated by extending the original gap whenever
        # open >= extend (asserted above).
        scanned = _scan_max_affine(h_no_e - gap_open, gap_extend)
        e = np.full(m, -np.inf)
        e[1:] = scanned[:-1]
        h = np.maximum(h_no_e, e)
        row_best_j = int(np.argmax(h))
        if h[row_best_j] > best:
            best = float(h[row_best_j])
            best_i, best_j = i, row_best_j + 1
        prev_h = np.concatenate(([0.0], h))
        prev_f = np.concatenate(([-np.inf], f))

    return LocalAlignmentResult(
        score=best,
        query_start=0,
        query_end=best_i,
        subject_start=0,
        subject_end=best_j,
    )


def smith_waterman(
    query: np.ndarray,
    subject: np.ndarray,
    matrix: np.ndarray,
    gap_open: float = 11.0,
    gap_extend: float = 1.0,
    alphabet_letters: str | None = None,
) -> LocalAlignmentResult:
    """Full affine Smith–Waterman with traceback.

    Uses explicit DP matrices (O(nm) memory), so intended for the moderate
    lengths of final-alignment scoring; use :func:`smith_waterman_score` for
    score-only screening.
    """
    check_positive("gap_open", gap_open)
    check_positive("gap_extend", gap_extend)
    query = np.asarray(query, dtype=np.uint8)
    subject = np.asarray(subject, dtype=np.uint8)
    matrix = np.asarray(matrix, dtype=np.float64)
    n, m = query.shape[0], subject.shape[0]
    if n == 0 or m == 0:
        return LocalAlignmentResult(0.0, 0, 0, 0, 0)

    neg = -np.inf
    h = np.zeros((n + 1, m + 1), dtype=np.float64)
    e = np.full((n + 1, m + 1), neg, dtype=np.float64)
    f = np.full((n + 1, m + 1), neg, dtype=np.float64)
    for i in range(1, n + 1):
        sub_scores = matrix[query[i - 1], subject]
        e_row = np.full(m + 1, neg)
        h_row = np.zeros(m + 1)
        f_row = np.maximum(h[i - 1, :] - gap_open, f[i - 1, :] - gap_extend)
        for j in range(1, m + 1):
            e_row[j] = max(h_row[j - 1] - gap_open, e_row[j - 1] - gap_extend)
            h_row[j] = max(
                0.0,
                h[i - 1, j - 1] + sub_scores[j - 1],
                e_row[j],
                f_row[j],
            )
        h[i, :] = h_row
        e[i, :] = e_row
        f[i, :] = f_row

    best_i, best_j = np.unravel_index(int(np.argmax(h)), h.shape)
    best = float(h[best_i, best_j])
    if best <= 0:
        return LocalAlignmentResult(0.0, 0, 0, 0, 0)

    # Traceback from (best_i, best_j) until H hits 0.
    i, j = int(best_i), int(best_j)
    q_parts: list[str] = []
    s_parts: list[str] = []
    gaps = 0
    matches = 0
    columns = 0
    letters = alphabet_letters

    def q_char(idx: int) -> str:
        return letters[query[idx]] if letters else "?"

    def s_char(idx: int) -> str:
        return letters[subject[idx]] if letters else "?"

    state = "H"
    while i > 0 and j > 0 and h[i, j] > 0:
        if state == "H":
            if h[i, j] == h[i - 1, j - 1] + matrix[query[i - 1], subject[j - 1]]:
                q_parts.append(q_char(i - 1))
                s_parts.append(s_char(j - 1))
                if query[i - 1] == subject[j - 1]:
                    matches += 1
                columns += 1
                i -= 1
                j -= 1
            elif h[i, j] == e[i, j]:
                state = "E"
            elif h[i, j] == f[i, j]:
                state = "F"
            else:  # pragma: no cover - defensive
                break
        elif state == "E":
            q_parts.append("-")
            s_parts.append(s_char(j - 1))
            gaps += 1
            columns += 1
            if e[i, j] == e[i, j - 1] - gap_extend:
                j -= 1
            else:
                j -= 1
                state = "H"
        else:  # state == "F"
            q_parts.append(q_char(i - 1))
            s_parts.append("-")
            gaps += 1
            columns += 1
            if f[i, j] == f[i - 1, j] - gap_extend:
                i -= 1
            else:
                i -= 1
                state = "H"

    identity = matches / columns if columns else 0.0
    return LocalAlignmentResult(
        score=best,
        query_start=i,
        query_end=int(best_i),
        subject_start=j,
        subject_end=int(best_j),
        identity=identity,
        gaps=gaps,
        aligned_query="".join(reversed(q_parts)),
        aligned_subject="".join(reversed(s_parts)),
    )
