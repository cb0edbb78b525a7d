"""Static bucketed vantage-point tree (Yianilos 1993, section III-A/III-D).

The tree recursively partitions equal-length code vectors around a vantage
point: elements with distance ``<= mu`` (the median) go left, the rest right.
Leaves hold *buckets* of up to ``bucket_capacity`` elements — the first of
the paper's two memory/time optimisations — and every internal vertex keeps
the classic four values (vantage point, radius ``mu``, left child, right
child) plus the subtree's lower/upper distance bounds as seen from the
vantage point (the second optimisation, enabling tighter pruning).

Construction is batch-vectorised: the distance from the vantage point to all
remaining elements is computed with one call to the metric's batched form,
so building over ``n`` elements costs ``O(n log n)`` metric-row evaluations
with no Python-level per-residue work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.util.rng import RandomSource, as_generator
from repro.vptree.metric import MetricAdapter
from repro.vptree.search import FlatTree, knn_search, radius_search


@dataclass
class VPNode:
    """One vertex of a vp-tree.

    Internal vertices carry ``vantage_index``/``mu`` and two children; leaf
    vertices carry ``bucket`` (indices into the tree's point matrix).  The
    ``low``/``high`` fields bound the distances from this vertex's vantage
    point to everything stored beneath it.
    """

    vantage_index: int = -1
    mu: float = 0.0
    #: everything in the right subtree lies strictly beyond this: ``mu``,
    #: except after a forced split of equidistant elements, where ties at
    #: ``mu`` sit on both sides and it is the float just below ``mu``
    mu_right: float = 0.0
    left: "VPNode | None" = None
    right: "VPNode | None" = None
    bucket: np.ndarray | None = None
    low: float = 0.0
    high: float = 0.0
    prefix: int = 1

    @property
    def is_leaf(self) -> bool:
        return self.bucket is not None

    def subtree_size(self) -> int:
        """Number of stored elements beneath (and at) this vertex."""
        if self.is_leaf:
            return int(self.bucket.shape[0])
        size = 1  # the vantage point itself is stored at the vertex
        if self.left is not None:
            size += self.left.subtree_size()
        if self.right is not None:
            size += self.right.subtree_size()
        return size

    def depth(self) -> int:
        """Height of the subtree rooted here (a lone leaf has depth 1)."""
        if self.is_leaf:
            return 1
        left = self.left.depth() if self.left is not None else 0
        right = self.right.depth() if self.right is not None else 0
        return 1 + max(left, right)


class VPTree:
    """Immutable bucketed vp-tree over a matrix of equal-length code vectors.

    Parameters
    ----------
    points:
        ``(n, L)`` ``uint8`` matrix; row ``i`` is element ``i``.
    metric:
        Pair metric, optionally with a vectorised ``batch`` method.
    payloads:
        Optional per-row payloads returned from searches (defaults to row
        indices).
    bucket_capacity:
        Maximum leaf bucket size (paper optimisation 1).
    rng:
        Seed/generator for vantage-point selection.
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: Callable[[np.ndarray, np.ndarray], float],
        payloads: Sequence | None = None,
        bucket_capacity: int = 16,
        rng: RandomSource = None,
    ) -> None:
        points = np.asarray(points, dtype=np.uint8)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D matrix, got shape {points.shape}")
        if bucket_capacity < 1:
            raise ValueError(f"bucket_capacity must be >= 1, got {bucket_capacity}")
        self.points = points
        self.adapter = (
            metric if isinstance(metric, MetricAdapter) else MetricAdapter(metric)
        )
        if payloads is None:
            self.payloads: list = list(range(points.shape[0]))
        else:
            self.payloads = list(payloads)
            if len(self.payloads) != points.shape[0]:
                raise ValueError(
                    f"payload count {len(self.payloads)} does not match "
                    f"point count {points.shape[0]}"
                )
        self.bucket_capacity = int(bucket_capacity)
        self._rng = as_generator(rng)
        self._flat = None
        indices = np.arange(points.shape[0], dtype=np.intp)
        self.root: VPNode | None = (
            self._build(indices, prefix=1) if points.shape[0] else None
        )

    # -- construction -----------------------------------------------------

    def _select_vantage(self, indices: np.ndarray) -> int:
        """Pick a vantage point among *indices* (uniform random; Yianilos'
        sampling heuristic is available through subclassing)."""
        return int(indices[self._rng.integers(0, indices.shape[0])])

    def _build(self, indices: np.ndarray, prefix: int) -> VPNode:
        if indices.shape[0] <= self.bucket_capacity:
            return VPNode(bucket=indices.copy(), prefix=prefix)

        pos = self._select_vantage(indices)
        rest = indices[indices != pos]
        dists = self.adapter.batch(self.points[pos], self.points[rest])
        mu = float(np.median(dists))
        mu_right = mu
        near = dists <= mu
        # Guard against degenerate splits when many elements are equidistant:
        # force both sides non-empty by moving the farthest "near" elements.
        if near.all() or not near.any():
            order = np.argsort(dists, kind="stable")
            half = rest.shape[0] // 2
            near = np.zeros(rest.shape[0], dtype=bool)
            near[order[:half]] = True
            mu = float(dists[order[half - 1]]) if half else float(dists.min())
            mu_right = float(np.nextafter(mu, -np.inf))
        node = VPNode(
            vantage_index=pos,
            mu=mu,
            mu_right=mu_right,
            low=float(dists.min()),
            high=float(dists.max()),
            prefix=prefix,
        )
        node.left = self._build(rest[near], prefix=(prefix << 1))
        node.right = self._build(rest[~near], prefix=(prefix << 1) | 1)
        return node

    # -- queries -----------------------------------------------------------

    def knn(self, query: np.ndarray, k: int, max_radius: float = float("inf")):
        """The *k* nearest stored elements to *query* — one ``(L,)`` code
        vector or a ``(W, L)`` batch — within *max_radius*, and what finding
        them cost: :func:`~repro.vptree.search.knn_search` on this tree."""
        return knn_search(self, query, k, max_radius=max_radius)

    def flat(self):
        """The tree's structure as a :class:`~repro.vptree.search.FlatTree`,
        built on first use (a mutable subclass drops it when it changes)."""
        if self._flat is None:
            self._flat = FlatTree(self.root, self.points.shape[0])
        return self._flat

    def radius_search(self, query: np.ndarray, radius: float) -> list[tuple[float, object]]:
        """All stored elements within *radius* of *query*."""
        return radius_search(self, query, radius)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        # Every row of the point matrix is stored at exactly one vertex.
        return self.points.shape[0]

    @property
    def depth(self) -> int:
        return 0 if self.root is None else self.root.depth()

    def validate_invariants(self) -> None:
        """Walk the tree checking the vp-tree partition invariants; raises
        ``AssertionError`` on violation.  Used by the property-based tests.
        """
        if self.root is None:
            return
        self._validate(self.root)

    def _validate(self, node: VPNode) -> None:
        if node.is_leaf:
            if node.bucket.shape[0] > self.bucket_capacity:
                # Leaves are only allowed to exceed capacity transiently in
                # the dynamic tree; the static tree must respect it.
                raise AssertionError(
                    f"leaf bucket size {node.bucket.shape[0]} exceeds capacity "
                    f"{self.bucket_capacity}"
                )
            return
        vantage = self.points[node.vantage_index]
        for child, side in ((node.left, "left"), (node.right, "right")):
            if child is None:
                raise AssertionError(f"internal node missing {side} child")
            for idx in _collect_indices(child):
                dist = self.adapter.pair(vantage, self.points[idx])
                if side == "left" and dist > node.mu:
                    raise AssertionError(
                        f"left-subtree element {idx} at distance {dist} > mu {node.mu}"
                    )
                if side == "right" and dist <= node.mu_right:
                    raise AssertionError(
                        f"right-subtree element {idx} at distance {dist} "
                        f"<= mu_right {node.mu_right}"
                    )
            self._validate(child)


def _collect_indices(node: VPNode) -> list[int]:
    """All point indices stored in the subtree rooted at *node*."""
    out: list[int] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            out.extend(int(i) for i in current.bucket)
            continue
        out.append(int(current.vantage_index))
        if current.left is not None:
            stack.append(current.left)
        if current.right is not None:
            stack.append(current.right)
    return out
