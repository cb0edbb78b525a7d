"""Dynamic vp-tree with batch insertion and rebalancing (section III-D).

The original vp-tree is build-once: naive one-at-a-time insertion degrades
it to a linked list.  Following Fu et al. (VLDB J. 2000) as adopted by the
paper, insertion resolves into four cases:

1. the target leaf bucket has room          -> append to the bucket;
2. the leaf is full but its sibling subtree
   has room                                 -> redistribute (rebuild) all
                                               elements under the parent;
3. leaf and sibling full, but some ancestor
   subtree has room                         -> rebuild under that ancestor;
4. the whole tree is at capacity            -> "split the root": rebuild the
                                               entire tree one level taller.

A subtree's *capacity* is structural: a leaf holds ``bucket_capacity``
elements; an internal vertex holds 1 (its vantage point) plus its children's
capacities.  Rebuilds reuse the static construction, so rebuilt subtrees are
balanced by median split.

The paper's practical refinement — **batch insertion** — is `insert_batch`:
large batches trigger a single full rebuild (amortised ``O(n log n)``)
instead of per-element rebalancing; small batches insert individually.
``rebuild_threshold`` controls the cutover and is ablated in
``benchmarks/test_ablation_batch_insert.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.util.rng import RandomSource
from repro.vptree.tree import VPNode, VPTree, _collect_indices


class DynamicVPTree(VPTree):
    """A vp-tree supporting element and batch insertion with rebalancing."""

    def __init__(
        self,
        metric: Callable[[np.ndarray, np.ndarray], float],
        segment_length: int,
        bucket_capacity: int = 16,
        rng: RandomSource = None,
        rebuild_threshold: float = 0.25,
    ) -> None:
        if segment_length < 1:
            raise ValueError(f"segment_length must be >= 1, got {segment_length}")
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1], got {rebuild_threshold}"
            )
        self.segment_length = int(segment_length)
        self.rebuild_threshold = float(rebuild_threshold)
        self.rebalance_count = 0
        self.full_rebuild_count = 0
        empty = np.empty((0, segment_length), dtype=np.uint8)
        super().__init__(
            points=empty, metric=metric, payloads=[], bucket_capacity=bucket_capacity,
            rng=rng,
        )

    # -- capacity accounting ------------------------------------------------

    def _capacity(self, node: VPNode) -> int:
        """Structural capacity of the subtree rooted at *node*."""
        if node.is_leaf:
            return self.bucket_capacity
        left = self._capacity(node.left) if node.left is not None else 0
        right = self._capacity(node.right) if node.right is not None else 0
        return 1 + left + right

    # -- insertion ------------------------------------------------------------

    def insert(self, point: np.ndarray, payload: object | None = None) -> int:
        """Insert one element; returns its row index.

        Applies the four-case rebalancing described in the module docstring.
        """
        point = np.asarray(point, dtype=np.uint8)
        if point.shape != (self.segment_length,):
            raise ValueError(
                f"point shape {point.shape} does not match segment length "
                f"{self.segment_length}"
            )
        index = self._append_point(point, payload)
        if self.root is None:
            self.root = VPNode(bucket=np.array([index], dtype=np.intp))
            return index

        path = self._descend_path(point)
        leaf = path[-1]
        # Case 1: leaf bucket has room.
        if leaf.bucket.shape[0] < self.bucket_capacity:
            leaf.bucket = np.append(leaf.bucket, np.intp(index))
            return index

        # Cases 2/3: walk up to the nearest ancestor with spare capacity.
        for ancestor in reversed(path[:-1]):
            if ancestor.subtree_size() < self._capacity(ancestor):
                self._rebuild_in_place(ancestor, extra=[index])
                self.rebalance_count += 1
                return index

        # Case 4: completely full tree -> split the root (full rebuild grows
        # the height by one).
        self._rebuild_root(extra=[index])
        self.full_rebuild_count += 1
        return index

    def insert_batch(
        self, points: np.ndarray, payloads: Sequence | None = None
    ) -> list[int]:
        """Insert many elements at once (the paper's preferred mode).

        When the batch is larger than ``rebuild_threshold`` times the current
        size the whole tree is rebuilt over the union — keeping it balanced
        at amortised cost — otherwise elements are inserted individually.
        """
        points = np.asarray(points, dtype=np.uint8)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.segment_length:
            raise ValueError(
                f"batch segment length {points.shape[1]} does not match "
                f"{self.segment_length}"
            )
        if payloads is not None and len(payloads) != points.shape[0]:
            raise ValueError(
                f"payload count {len(payloads)} does not match batch size "
                f"{points.shape[0]}"
            )

        current = len(self)
        if current == 0 or points.shape[0] >= self.rebuild_threshold * current:
            indices = [
                self._append_point(points[i], payloads[i] if payloads else None)
                for i in range(points.shape[0])
            ]
            self._rebuild_root(extra=[])
            self.full_rebuild_count += 1
            return indices
        return [
            self.insert(points[i], payloads[i] if payloads else None)
            for i in range(points.shape[0])
        ]

    # -- internals -------------------------------------------------------------

    def _append_point(self, point: np.ndarray, payload: object | None) -> int:
        # Amortised growth: self.points is a view over a doubling backing
        # buffer, so per-element insertion stays O(L) instead of O(nL).
        index = self.points.shape[0]
        # Every mutation starts by appending its row, and each one changes
        # what the flattened structure would hold (a bucket, a subtree, the
        # bounds on the descent path): rebuild it at the next search.
        self._flat = None
        storage = getattr(self, "_storage", None)
        if storage is None or index >= storage.shape[0]:
            new_cap = max(64, 2 * (storage.shape[0] if storage is not None else 0))
            grown = np.empty((new_cap, self.segment_length), dtype=np.uint8)
            if index:
                grown[:index] = self.points
            self._storage = grown
        self._storage[index] = point
        self.points = self._storage[: index + 1]
        self.payloads.append(payload if payload is not None else index)
        return index

    def _descend_path(self, point: np.ndarray) -> list[VPNode]:
        """Root-to-leaf path the element takes (left iff ``d <= mu``),
        widening each vertex's ``low``/``high`` to admit it: the element
        ends up somewhere beneath every vertex on the path, and search
        rejects whole subtrees on those bounds."""
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            dist = self.adapter.pair(point, self.points[node.vantage_index])
            node.low = min(node.low, dist)
            node.high = max(node.high, dist)
            node = node.left if dist <= node.mu else node.right
            path.append(node)
        return path

    def _rebuild_in_place(self, node: VPNode, extra: list[int]) -> None:
        """Rebuild the subtree at *node* over its elements plus *extra*."""
        indices = np.array(
            sorted(set(_collect_indices(node)) | set(extra)), dtype=np.intp
        )
        rebuilt = self._build(indices, prefix=node.prefix)
        node.vantage_index = rebuilt.vantage_index
        node.mu = rebuilt.mu
        node.mu_right = rebuilt.mu_right
        node.left = rebuilt.left
        node.right = rebuilt.right
        node.bucket = rebuilt.bucket
        node.low = rebuilt.low
        node.high = rebuilt.high

    def _rebuild_root(self, extra: list[int]) -> None:
        all_indices = np.arange(self.points.shape[0], dtype=np.intp)
        del extra  # indices already appended to the point matrix
        self.root = self._build(all_indices, prefix=1) if all_indices.size else None
