"""Distance functions over encoded sequences.

Mendel's vp-trees require a *metric* on fixed-length sequence segments
(section III-B of the paper):

* DNA — plain **Hamming distance** (:func:`hamming`), substitutions captured
  exactly; shifts are absorbed upstream by the sliding-window indexing.
* Protein — per-position sum of the **Mendel distance matrix** derived from a
  scoring matrix (:class:`MatrixDistance`), so a Trp–Trp match and a Leu–Leu
  match are both distance 0 while mismatches keep their scoring-matrix
  penalty amplitude.

All kernels are vectorised over ``uint8`` code arrays and support
one-vs-one, one-vs-many and many-vs-many evaluation: ``batch`` takes one
query ``(L,)`` or a stack of them ``(W, L)``, and ``pairs`` scores two
``(n, L)`` stacks row against row (the part path's named candidates, each
``(window, row)`` pair once).  The stacked form is what the
vp-tree scan runs, one call per block of stored rows: it walks the ``L``
positions once, adding each position's scores for every ``(row, query)``
pair at once (for a matrix, from a per-position *query profile*).  Build and
placement keep the one-query form, which is faster for a single query.
Codes at or above a matrix's size raise ``IndexError`` in every form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.seq.alphabet import DNA, PROTEIN, Alphabet
from repro.seq.matrices import BLOSUM62, mendel_distance_matrix


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim not in (1, 2):
        raise ValueError(
            f"first sequence must be 1-D or a (W, L) stack, got shape {a.shape}"
        )
    if b.shape[-1] != a.shape[-1]:
        raise ValueError(
            f"length mismatch: {a.shape[-1]} vs {b.shape[-1]} "
            "(Mendel distances are defined over equal-length segments)"
        )
    return a, b


def _check_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two ``(n, L)`` stacks to score row against row."""
    a, b = _check_pair(a, b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"pairs need two (n, L) stacks, got {a.shape} and {b.shape}")
    return a, b


def _stacked(
    queries: np.ndarray, rows: np.ndarray, profile_cells: int, add
) -> np.ndarray:
    """``(W, n)`` scores of a ``(W, L)`` stack against ``(n, L)`` rows:
    ``add(scores, part)`` adds, position by position, the ``(n, w)`` scores
    of the windows *part* into *scores*.  Where each window's tables take
    *profile_cells* cells the stack goes in sub-stacks, so neither a
    sub-stack's tables nor one position's scores outgrow the result."""
    out = np.zeros((rows.shape[0], queries.shape[0]))
    if not out.size:
        return out.T
    step = max(1, out.size // profile_cells) if profile_cells else len(queries)
    for start in range(0, len(queries), step):
        add(out[:, start:start + step], queries[start:start + step])
    return out.T


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Hamming distance between two equal-length code arrays."""
    a, b = _check_pair(a, b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("use hamming_batch for one-vs-many evaluation")
    return float(np.count_nonzero(a != b))


def hamming_batch(query: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Hamming distance from *query* ``(L,)`` to every row of *batch* ``(n,
    L)``; from a ``(W, L)`` stack, a ``(W, n)`` matrix."""
    query, batch = _check_pair(query, batch)
    if batch.ndim == 1:
        batch = batch[None, :]
    if query.ndim == 2:

        def add(scores, part):
            for p in range(part.shape[1]):
                scores += batch[:, p, None] != part[:, p]

        return _stacked(query, batch, 0, add)
    return np.count_nonzero(batch != query[None, :], axis=1).astype(np.float64)


def percent_identity(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of identical positions between two equal-length segments.

    This is the paper's candidate filter measure:
    ``1 - hamming(a, b) / len(b)``.
    """
    a, b = _check_pair(a, b)
    if a.shape[0] == 0:
        raise ValueError("percent identity undefined for empty segments")
    return 1.0 - hamming(a, b) / a.shape[0]


@dataclass
class MatrixDistance:
    """Metric over equal-length protein segments from a per-residue matrix.

    ``distance(a, b) = sum_p M[a[p], b[p]]`` where ``M`` is a metricised
    per-residue distance matrix (see
    :func:`repro.seq.matrices.mendel_distance_matrix`).  Because ``M`` is a
    metric on residues, the per-position sum is a metric on segments (it is
    the L1 product metric), which is what the vp-tree requires.

    The matrix has at most 256 letters and every entry is a (finite)
    integer, as every :func:`~repro.seq.matrices.mendel_distance_matrix`
    entry is: a sum of integers held in ``float64`` is exact in any order,
    so :meth:`batch` may add a row up however is fastest and still equal
    ``__call__`` bit for bit, in either form.
    """

    matrix: np.ndarray
    _flat: np.ndarray = field(init=False, repr=False)
    _size: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        # Codes are uint8, so the flat index ``a * size + b`` fits 16 bits.
        if matrix.shape[0] > 256:
            raise ValueError(
                f"matrix has {matrix.shape[0]} letters; uint8 codes name 256"
            )
        if not (np.isfinite(matrix).all() and (matrix == np.trunc(matrix)).all()):
            raise ValueError("matrix entries must be integer-valued")
        self.matrix = matrix
        self._size = matrix.shape[0]
        self._flat = np.ascontiguousarray(matrix.ravel())

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        a, b = _check_pair(a, b)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("use .batch for one-vs-many evaluation")
        # 2-D indexing checks both codes against the matrix's size.
        return float(self.matrix[a, b].sum())

    def batch(self, query: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Distances from *query* ``(L,)`` to every row of *batch* ``(n, L)``;
        from a ``(W, L)`` stack of queries, a ``(W, n)`` matrix."""
        query, batch = _check_pair(query, batch)
        if batch.ndim == 1:
            batch = batch[None, :]
        if query.ndim == 2:
            # The query profile, profile[a, p, w] = M[window w's code at p, a]:
            # a row's scores at p are the profile's row at its code there, one
            # ``take`` (which checks the code) for every window at once.
            def add(scores, part):
                profile = self.matrix.T[:, part.T]
                for p in range(part.shape[1]):
                    scores += profile[:, p].take(batch[:, p], axis=0)

            return _stacked(query, batch, query.shape[1] * self._size, add)
        # A row code at or above the size would alias into the next matrix
        # row of the flat index; a query code's index is past the end.
        if batch.max(initial=0) >= self._size:
            raise IndexError(
                f"code {batch.max()} is out of bounds for a {self._size}-letter matrix"
            )
        # One narrow index, one take, one row sum: ``einsum`` adds a short
        # row faster than ``add.reduce`` (and calls no BLAS, which would
        # start threads); the entries are integers, so the order is free.
        idx = (query.astype(np.uint16) * self._size)[None, :] + batch
        return np.einsum("ij->i", self._flat.take(idx))

    def pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances from each row of *a* ``(n, L)`` to the same row of *b*
        ``(n, L)``: the diagonal of the stacked :meth:`batch`, from one flat
        ``take`` and one row sum."""
        a, b = _check_rows(a, b)
        # As in the one-query form: a code of *b* at or above the size
        # would alias into the next matrix row, one of *a* indexes past
        # the end.
        if b.max(initial=0) >= self._size:
            raise IndexError(
                f"code {b.max()} is out of bounds for a {self._size}-letter matrix"
            )
        idx = a.astype(np.uint16) * self._size + b
        return np.einsum("ij->i", self._flat.take(idx))


@dataclass
class HammingDistance:
    """Callable wrapper around :func:`hamming` with a batched form,
    interface-compatible with :class:`MatrixDistance`."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return hamming(a, b)

    def batch(self, query: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return hamming_batch(query, batch)

    def pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hamming distance from each row of *a* ``(n, L)`` to the same row
        of *b*."""
        a, b = _check_rows(a, b)
        return np.count_nonzero(a != b, axis=1).astype(np.float64)


def default_distance(alphabet: Alphabet):
    """The paper's default segment metric for *alphabet*:

    Hamming for DNA, metricised BLOSUM62 for protein.
    """
    if alphabet is DNA or alphabet.name == "dna":
        return HammingDistance()
    if alphabet is PROTEIN or alphabet.name == "protein":
        return MatrixDistance(mendel_distance_matrix(BLOSUM62))
    raise ValueError(f"no default distance for alphabet {alphabet.name!r}")
