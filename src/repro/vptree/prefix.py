"""Vantage-point prefix tree: the vp-tree as an LSH function (III-E/III-F).

Each vertex of a vp-tree is annotated with a binary *prefix*: the root has
prefix ``1``; a child left-shifts its parent's prefix and adds ``1`` when it
is the right child.  The prefix is therefore an integral encoding of the
root-to-vertex path, and nearby prefixes correspond (coarsely) to nearby
regions of the metric space.

Used as a hash, the full traversal would be too fine (and too expensive), so
a **cutoff depth threshold** stops the walk early: every element routed to
the same depth-``t`` vertex receives the same hash value — a deliberate
collision that groups similar elements.  The paper sets the threshold to
half the tree's depth (a trade-off ablated in
``benchmarks/test_ablation_prefix_depth.py``).

Two traversal modes exist:

* :meth:`VPPrefixTree.hash_many` — batched single-path descent used when
  *indexing* (``d <= mu`` goes left, else right; ``hash_one`` is one row);
* :meth:`VPPrefixTree.hash_query` — tolerance descent used when *querying*:
  when the query lies within ``tolerance`` of a vertex boundary the walk
  branches into both children and the subquery is replicated to every
  resulting group (section V-B: "multiple groups can be selected from the
  vp-hash tree if the path branches").

The tree itself is built once over a *sample* of the dataset (it is a shared
cluster-wide hash function, not a per-node index) and is immutable
afterwards, so every node computes identical hashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.rng import RandomSource
from repro.vptree.tree import VPNode, VPTree


@dataclass(frozen=True)
class PrefixHash:
    """Result of hashing one element: the prefix value and the depth at
    which the traversal stopped (cutoff or leaf, whichever came first)."""

    prefix: int
    depth: int


class VPPrefixTree:
    """A frozen vp-tree over a data sample, used as an LSH function.

    Parameters
    ----------
    sample:
        ``(n, L)`` matrix of representative elements used to shape the tree.
    metric:
        Segment metric (pair callable, optionally batched).
    depth_threshold:
        Cutoff depth.  ``None`` applies the paper's default of half the
        built tree's depth.
    bucket_capacity:
        Leaf bucket size of the underlying tree (shapes achievable depth).
    """

    def __init__(
        self,
        sample: np.ndarray,
        metric: Callable[[np.ndarray, np.ndarray], float],
        depth_threshold: int | None = None,
        bucket_capacity: int = 4,
        rng: RandomSource = None,
    ) -> None:
        sample = np.asarray(sample, dtype=np.uint8)
        if sample.ndim != 2 or sample.shape[0] < 2:
            raise ValueError(
                "prefix tree needs a 2-D sample with at least 2 elements, "
                f"got shape {sample.shape}"
            )
        self._tree = VPTree(
            points=sample,
            metric=metric,
            bucket_capacity=bucket_capacity,
            rng=rng,
        )
        built_depth = self._tree.depth
        if depth_threshold is None:
            # Paper default: half the tree's depth, at least 1.
            depth_threshold = max(1, built_depth // 2)
        if depth_threshold < 1:
            raise ValueError(f"depth_threshold must be >= 1, got {depth_threshold}")
        self.depth_threshold = int(depth_threshold)
        self.segment_length = int(sample.shape[1])
        #: Prefixes whose traversal continues one level past the cutoff
        #: (see :meth:`refine`).  Empty by default, so hashing is exactly
        #: the paper's fixed-threshold behaviour unless a group split
        #: deliberately sharpens one region.
        self._refined: set[int] = set()

    @property
    def tree_depth(self) -> int:
        return self._tree.depth

    def refine(self, prefix: int) -> tuple[int, int]:
        """Descend the frontier one level deeper at *prefix*.

        After refinement, elements that previously hashed to *prefix* hash
        to one of its two children instead — the mechanism behind splitting
        an overloaded single-prefix group (the autoscaler's ``group_split``
        action): the parent region is partitioned along the vp-tree's own
        ball boundary, so the two halves remain metrically coherent.

        Returns ``(left_prefix, right_prefix)``.  Raises :class:`KeyError`
        if *prefix* is not on the current frontier and :class:`ValueError`
        if the frontier vertex is a leaf (no deeper structure to expose).
        Refinement is cumulative and deterministic: the same sequence of
        refinements yields byte-identical hashes on every node.
        """
        node = self._frontier_node(prefix)
        if node is None:
            raise KeyError(f"prefix {prefix} is not on the hash frontier")
        if node.is_leaf:
            raise ValueError(
                f"prefix {prefix} is a leaf bucket and cannot be refined"
            )
        self._refined.add(prefix)
        return (node.left.prefix, node.right.prefix)

    def _frontier_node(self, prefix: int) -> VPNode | None:
        """The frontier vertex carrying *prefix*, or ``None``."""
        stack: list[tuple[VPNode, int]] = [(self._tree.root, 0)]
        while stack:
            node, depth = stack.pop()
            if self._at_frontier(node, depth):
                if node.prefix == prefix:
                    return node
                continue
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        return None

    def _at_frontier(self, node: VPNode, depth: int) -> bool:
        """Whether the walk stops at *node*: a leaf, or at/past the cutoff
        without a refinement pushing the frontier one level further."""
        if node.is_leaf:
            return True
        return depth >= self.depth_threshold and node.prefix not in self._refined

    # -- hashing ------------------------------------------------------------

    def hash_one(self, point: np.ndarray) -> PrefixHash:
        """Single-path prefix hash of one element (a batch of one)."""
        prefixes, depths = self.hash_many(self._check(point)[None, :])
        return PrefixHash(prefix=int(prefixes[0]), depth=int(depths[0]))

    def hash_many(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Single-path prefix hash of every row of an ``(n, L)`` batch, used
        for data dispersion (``d <= mu`` goes left, else right): the
        ``int64`` arrays ``(prefixes, depths)``.

        One descent serves the whole batch: every vertex above the frontier
        that some rows reach scores them in one batched distance call, so a
        row's ``depth`` is the evaluations made for it.
        """
        rows = self._check(rows, ndim=2)
        prefixes, depths = np.empty((2, rows.shape[0]), dtype=np.int64)
        stack = [(self._tree.root, 0, np.arange(rows.shape[0]))]
        while stack:
            node, depth, idx = stack.pop()
            if not idx.size:
                continue
            if self._at_frontier(node, depth):
                prefixes[idx] = node.prefix
                depths[idx] = depth
                continue
            dist = self._tree.adapter.batch(
                self._tree.points[node.vantage_index], rows[idx]
            )
            left = dist <= node.mu
            stack.append((node.left, depth + 1, idx[left]))
            stack.append((node.right, depth + 1, idx[~left]))
        return prefixes, depths

    def hash_query(
        self, point: np.ndarray, tolerance: float = 0.0
    ) -> tuple[list[PrefixHash], int]:
        """Tolerance prefix hash used for query routing; returns the hashes
        in traversal order and the distance evaluations the walk made (one
        per vertex above the frontier it visited).

        Branches into both children whenever ``|d - mu| <= tolerance``, so a
        query near a partition boundary reaches every group that may hold
        neighbours.  ``tolerance=0`` reduces to :meth:`hash_one`, whose
        ``depth`` is its evaluation count.
        """
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        point = self._check(point)
        results: list[PrefixHash] = []
        evals = self._branch_visit(self._tree.root, point, tolerance, 0, results)
        return results, evals

    def _branch_visit(
        self,
        node: VPNode,
        point: np.ndarray,
        tolerance: float,
        depth: int,
        out: list[PrefixHash],
    ) -> int:
        if self._at_frontier(node, depth):
            out.append(PrefixHash(prefix=node.prefix, depth=depth))
            return 0
        dist = self._tree.adapter.pair(point, self._tree.points[node.vantage_index])
        go_left = dist <= node.mu + tolerance
        go_right = dist > node.mu - tolerance
        evals = 1
        if go_left:
            evals += self._branch_visit(node.left, point, tolerance, depth + 1, out)
        if go_right:
            evals += self._branch_visit(node.right, point, tolerance, depth + 1, out)
        return evals

    # -- prefix enumeration ----------------------------------------------------

    def all_prefixes(self) -> list[int]:
        """Every prefix reachable at the cutoff depth, in tree (in-order)
        order — adjacent values correspond to adjacent metric regions.

        Used to build the prefix -> group assignment table.
        """
        out: list[int] = []
        self._enumerate(self._tree.root, 0, out)
        return out

    def _enumerate(self, node: VPNode, depth: int, out: list[int]) -> None:
        if self._at_frontier(node, depth):
            out.append(node.prefix)
            return
        self._enumerate(node.left, depth + 1, out)
        self._enumerate(node.right, depth + 1, out)

    def _check(self, points: np.ndarray, ndim: int = 1) -> np.ndarray:
        points = np.asarray(points, dtype=np.uint8)
        if points.ndim != ndim or points.shape[-1] != self.segment_length:
            raise ValueError(
                f"point shape {points.shape} does not match segment length "
                f"{self.segment_length}"
            )
        return points
