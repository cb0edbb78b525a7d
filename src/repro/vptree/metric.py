"""Metric adapter used by every vp-tree variant.

A metric can be supplied either as a plain callable ``f(a, b) -> float`` or
as an object exposing a vectorised ``batch(query, rows) -> ndarray`` that
also takes a ``(W, L)`` stack of queries (as
:class:`repro.seq.distance.MatrixDistance` does).  :class:`MetricAdapter`
normalises both into one interface and counts evaluations, which the
benchmarks use to compare search-space pruning between systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class BatchedMetric(Protocol):
    """Structural type for metrics with a vectorised one-vs-many form
    (``(L,)`` query -> ``(n,)``, ``(W, L)`` stack -> ``(W, n)``)."""

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float: ...

    def batch(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray: ...


@dataclass
class MetricAdapter:
    """Wrap *metric* with a uniform pair/batch interface and call counting.

    ``pair_evaluations`` counts logical distance evaluations (a batch of n
    rows counts as n, a stack of W queries against them as W x n), giving a
    machine-independent work measure.
    """

    metric: Callable[[np.ndarray, np.ndarray], float]
    pair_evaluations: int = field(default=0, init=False)
    _batch_fn: Callable | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Resolve the batched form once: runtime Protocol isinstance checks
        # are far too slow for the per-leaf hot path.
        self._batch_fn = getattr(self.metric, "batch", None)

    def pair(self, a: np.ndarray, b: np.ndarray) -> float:
        self.pair_evaluations += 1
        return float(self.metric(a, b))

    def batch(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        query, rows = np.asarray(query), np.asarray(rows)
        if rows.ndim == 1:
            rows = rows[None, :]
        width = query.shape[0] if query.ndim == 2 else 1
        self.pair_evaluations += width * rows.shape[0]
        if self._batch_fn is not None:
            return np.asarray(self._batch_fn(query, rows), dtype=np.float64)
        scores = np.array(
            [[self.metric(each, row) for row in rows] for each in np.atleast_2d(query)],
            dtype=np.float64,
        ).reshape(width, rows.shape[0])
        return scores if query.ndim == 2 else scores[0]
