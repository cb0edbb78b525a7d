"""Section III-C's k-NN traversal as the paper states it — the test oracle.

This is the recursive walk ``repro.vptree.search`` ran until its replay
became an iterative pass over :class:`~repro.vptree.search.FlatTree`'s
arrays: vertex by vertex, one distance at a time from the caller's distance
source, a bounded max-heap whose maximum is the shrinking ``tau``.  The
executed kernel must reproduce its hits, their order under ties, and its
evaluation count exactly (``tests/vptree/test_knn_oracle.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np


class KBest:
    """Bounded max-heap of the best (smallest-distance) k candidates.

    ``max_radius`` caps the pruning radius from the start: candidates beyond
    it are never collected and subtrees beyond it are never visited.
    """

    def __init__(self, k: int, max_radius: float = float("inf")) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.max_radius = float(max_radius)
        self._heap: list[tuple[float, int, int]] = []  # (-dist, tiebreak, index)
        self._counter = itertools.count()

    @property
    def tau(self) -> float:
        """Current pruning radius: the k-th best distance (or the cap)."""
        if len(self._heap) < self.k:
            return self.max_radius
        return min(-self._heap[0][0], self.max_radius)

    def offer(self, dist: float, index: int) -> None:
        if dist > self.max_radius:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-dist, next(self._counter), index))
        elif dist < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-dist, next(self._counter), index))

    def offer_batch(self, dists: np.ndarray, indices: np.ndarray) -> None:
        # Only candidates beating the current tau can matter.
        tau = self.tau
        if np.isfinite(tau):
            # <= so boundary candidates still enter while the heap is short.
            mask = dists <= tau
            dists, indices = dists[mask], indices[mask]
        # Ascending order makes the first k offers the only ones that can
        # land.  If one of them is refused, the heap was already full with a
        # maximum <= it, and a full heap's maximum never rises.  If all k
        # land, the heap holds nothing larger than the k-th: a larger older
        # entry would have been evicted before any of them, and were it
        # still there the heap would hold k + 1.  Either way every later
        # candidate is >= the maximum and fails ``offer``'s strict ``<``; a
        # refused offer draws no tie-break counter, so stopping here leaves
        # the heap exactly as offering the whole bucket would.
        order = np.argsort(dists, kind="stable")[: self.k]
        for pos in order:
            self.offer(float(dists[pos]), int(indices[pos]))

    def sorted_items(self) -> list[tuple[float, int]]:
        return sorted((-neg, idx) for neg, _, idx in self._heap)


def traverse(
    tree, k: int, max_radius: float, dist_to_row: Callable, dist_to_rows: Callable
) -> tuple[list[tuple[float, object]], int]:
    """``(hits, evals)`` of one query's walk over *tree*.  The walk asks its
    distance source for the query's distance to one row (``int`` ->
    ``float``) or to a bucket of rows (index array -> ``float64`` array)."""
    best = KBest(k, max_radius=max_radius)
    evals = _visit(tree.root, best, dist_to_row, dist_to_rows)
    return [(dist, tree.payloads[idx]) for dist, idx in best.sorted_items()], evals


def _visit(node, best: KBest, dist_to_row: Callable, dist_to_rows: Callable) -> int:
    """Visit the subtree at *node*; returns the distance evaluations made
    (one per internal vertex, one per bucket row)."""
    if node.is_leaf:
        size = node.bucket.shape[0]
        if size:
            best.offer_batch(dist_to_rows(node.bucket), node.bucket)
        return size

    dist = dist_to_row(node.vantage_index)
    best.offer(dist, node.vantage_index)
    evals = 1

    # Subtree-level reject via the stored bounds: every element beneath this
    # vertex lies at distance within [low, high] of its vantage point, so if
    # the tau-ball around the query cannot reach that annulus, skip it all.
    if dist - best.tau > node.high or dist + best.tau < node.low:
        return evals

    # Descend the side the query falls on first so tau shrinks early, then
    # re-test the far side against the (possibly smaller) tau.  The left
    # subtree holds distances <= mu, the right holds > mu_right (section
    # III-C's three cases: both tests pass only when the tau-ball straddles
    # mu; ``mu_right`` is ``mu`` unless ties at mu sit on both sides).
    if dist <= node.mu:
        if node.left is not None and dist - best.tau <= node.mu:
            evals += _visit(node.left, best, dist_to_row, dist_to_rows)
        if node.right is not None and dist + best.tau > node.mu_right:
            evals += _visit(node.right, best, dist_to_row, dist_to_rows)
    else:
        if node.right is not None and dist + best.tau > node.mu_right:
            evals += _visit(node.right, best, dist_to_row, dist_to_rows)
        if node.left is not None and dist - best.tau <= node.mu:
            evals += _visit(node.left, best, dist_to_row, dist_to_rows)
    return evals
