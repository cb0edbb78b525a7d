"""Nearest-neighbour and radius search over vp-trees (paper section III-C).

Both searches are a single traversal with a shrinking ``tau`` radius.  At an
internal vertex with vantage point ``p`` and radius ``mu`` three cases arise
for the query ball ``B(q, tau)``:

1. entirely inside ``B(p, mu)``   -> right subtree pruned;
2. entirely outside ``B(p, mu)``  -> left subtree pruned;
3. intersecting the boundary      -> both subtrees visited.

The stored lower/upper bounds (``node.low``/``node.high``) tighten case
detection beyond the plain ``mu`` test.  Leaf buckets are scored with one
vectorised batch call.

**Executed kernel vs modelled cost.**  A k-NN search is charged the
distance evaluations that traversal makes — one per visited internal vertex
plus the bucket size of every visited leaf — and that figure is returned
beside the hits.  The distances themselves come from *one* pass of
``adapter.batch`` over every stored row per batch of queries (at the radii
Mendel searches with the traversal evaluates nearly every row anyway), after
which the traversal's outcome is reproduced exactly:

* if fewer than ``k`` rows lie inside ``max_radius`` the k-best heap can
  never fill, so ``tau`` stays at ``max_radius`` for the whole walk, every
  prune test is a fixed predicate of the query's distance to one vantage
  row, and the visit set does not depend on visit order — it is computed
  for all such queries of a batch at once (:meth:`FlatTree.reach`);
* otherwise ``tau`` shrinks as the heap fills and tie-breaks depend on the
  order vertices are met in, so :func:`_knn_visit` itself is replayed,
  reading distances from the precomputed row instead of calling the metric.

There is one search path; only the feeder of that pass differs by point
store (:func:`_fill`).  An in-RAM matrix is read query by query in contiguous
row blocks.  A paged store (a spilled node's
:class:`~repro.tier.store.TieredPoints`) hands over each of its pages once
and every query of the batch is scored against a page while it is in hand.
The paper's node walks its tree and would touch a page per visited bucket;
ours reads all of a node's pages because the visit set is nearly all of
them — the reads that had to come from the device are counted by the pass
and returned with the results (:class:`BatchResult`), never left in a
shared tally.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vptree.tree import VPNode, VPTree

#: ``(distance, payload)`` pairs ascending by distance, and the distance
#: evaluations the search is charged
SearchResult = tuple[list[tuple[float, object]], int]


class _KBest:
    """Bounded max-heap of the best (smallest-distance) k candidates.

    ``max_radius`` caps the pruning radius from the start: candidates beyond
    it are never collected and subtrees beyond it are never visited.  Mendel
    passes the largest distance its identity filter could ever accept, so
    bounding is lossless for the query pipeline.
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
        # Only candidates beating the current tau can matter; pre-filter to
        # keep heap churn low on big buckets.
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


class BatchResult(list):
    """What :func:`knn_search` returns for a ``(W, L)`` batch: one
    :data:`SearchResult` per query row, plus what filling the distance
    matrix had to read from the device when the point store is paged (both
    zero over an in-RAM matrix)."""

    #: pages that were not resident, and their compressed bytes
    cold_reads = 0
    cold_bytes = 0


def knn_search(
    tree: "VPTree",
    query: np.ndarray,
    k: int,
    max_radius: float = float("inf"),
) -> "SearchResult | BatchResult":
    """The k nearest elements of *tree* to *query*, with the search's cost.

    *query* is one ``(L,)`` code vector or a ``(W, L)`` batch; the result is
    one ``(hits, evals)`` pair or a :class:`BatchResult` of them in row
    order (the ``scipy.spatial.KDTree.query`` convention).  ``hits`` are
    ``(distance, payload)`` pairs ascending by distance; ``evals`` is the
    number of distance evaluations the section III-C traversal makes for
    that query, counted by the search itself.

    ``max_radius`` restricts results (and the search) to a ball around the
    query — see :class:`_KBest`.
    """
    query = np.asarray(query, dtype=np.uint8)
    queries = query[None, :] if query.ndim == 1 else query
    if tree.root is None:
        results = BatchResult(([], 0) for _ in range(queries.shape[0]))
    else:
        if queries.ndim != 2 or queries.shape[1] != tree.points.shape[1]:
            raise ValueError(
                f"query shape {query.shape} does not match indexed "
                f"segment length {tree.points.shape[1]}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        results = _scan_batch(tree, queries, k, float(max_radius))
    return results[0] if query.ndim == 1 else results


# -- the traversal ---------------------------------------------------------------
# It asks its distance source for the query's distance to one row (``int``
# -> ``float``) or to a bucket of rows (index array -> ``float64`` array).


def _traverse(
    tree: "VPTree", k: int, max_radius: float,
    dist_to_row: Callable, dist_to_rows: Callable,
) -> SearchResult:
    best = _KBest(k, max_radius=max_radius)
    evals = _knn_visit(tree.root, best, dist_to_row, dist_to_rows)
    return [(dist, tree.payloads[idx]) for dist, idx in best.sorted_items()], evals


def _knn_visit(
    node: "VPNode", best: _KBest, dist_to_row: Callable, dist_to_rows: Callable
) -> int:
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
            evals += _knn_visit(node.left, best, dist_to_row, dist_to_rows)
        if node.right is not None and dist + best.tau > node.mu_right:
            evals += _knn_visit(node.right, best, dist_to_row, dist_to_rows)
    else:
        if node.right is not None and dist + best.tau > node.mu_right:
            evals += _knn_visit(node.right, best, dist_to_row, dist_to_rows)
        if node.left is not None and dist - best.tau <= node.mu:
            evals += _knn_visit(node.left, best, dist_to_row, dist_to_rows)
    return evals


# -- one distance pass per query ---------------------------------------------------

#: distance cells (queries x rows) held at once by :func:`_scan_batch`; a
#: longer batch is worked through in slices so memory stays bounded (over a
#: paged store: this matrix plus one decoded page)
_SCAN_CELLS = 1 << 20
#: code cells (rows x segment length) handed to one metric call: the batched
#: metrics make several 8-byte-a-cell temporaries, which past a few hundred
#: KB fall out of cache and cost ~3x per pair (7,900 rows x 32 residues in
#: one call: 369 ns a pair; in 1,024-row blocks: 129 ns)
_PASS_CELLS = 1 << 15


class FlatTree:
    """A vp-tree's vertices as pre-order arrays (a parent always sits below
    its children's positions), each carrying the prune tests on the edge
    from its parent, so the fixed-``tau`` visit sets of many queries come out
    of a few array operations.  Structure only — no copy of the point matrix."""

    def __init__(self, root: "VPNode", rows: int) -> None:
        inf = float("inf")
        parent, via_row, inner_max, outer_min, outer_above, weight = (
            [] for _ in range(6)
        )
        levels: list[list[int]] = []
        #: the vertex (vantage or bucket) each point row is stored at
        self.vertex_of_row = np.zeros(rows, dtype=np.intp)
        # The root's own edge entries are never read (it is always met).
        stack = [(root, 0, root, False, 0)]
        while stack:
            node, above, above_node, right_side, level = stack.pop()
            vertex = len(parent)
            parent.append(above)
            via_row.append(max(above_node.vantage_index, 0))
            # With d the query's distance to the parent's vantage row, this
            # vertex is met iff d - tau <= high (bounds), d + tau >= low
            # (bounds) and its side's mu test holds: d - tau <= mu on the
            # left, d + tau > mu_right on the right.
            inner_max.append(
                above_node.high if right_side else min(above_node.high, above_node.mu)
            )
            outer_min.append(above_node.low)
            outer_above.append(above_node.mu_right if right_side else -inf)
            if level == len(levels):
                levels.append([])
            levels[level].append(vertex)
            if node.is_leaf:
                weight.append(node.bucket.shape[0])
                self.vertex_of_row[node.bucket] = vertex
                continue
            weight.append(1)
            self.vertex_of_row[node.vantage_index] = vertex
            if node.right is not None:
                stack.append((node.right, vertex, node, True, level + 1))
            if node.left is not None:
                stack.append((node.left, vertex, node, False, level + 1))
        self.parent = np.array(parent, dtype=np.intp)
        #: the parent's vantage row and the three thresholds described above
        self.via_row = np.array(via_row, dtype=np.intp)
        self.inner_max = np.array(inner_max, dtype=np.float64)
        self.outer_min = np.array(outer_min, dtype=np.float64)
        self.outer_above = np.array(outer_above, dtype=np.float64)
        #: distance evaluations a visit costs: 1, or the leaf's bucket size
        self.weight = np.array(weight, dtype=np.int64)
        #: non-root vertices grouped by depth, shallowest first
        self.levels = [np.array(level, dtype=np.intp) for level in levels[1:]]

    def reach(self, dists: np.ndarray, tau: float) -> np.ndarray:
        """``(W, V)`` mask of the vertices :func:`_knn_visit` meets for each
        row of *dists* ``(W, N)`` while ``tau`` never moves: a vertex is met
        iff its parent is met and the edge tests pass — the traversal's own
        float comparisons, which no longer depend on visit order."""
        to_parent = dists[:, self.via_row]
        inner, outer = to_parent - tau, to_parent + tau
        mask = (
            (inner <= self.inner_max)
            & (outer >= self.outer_min)
            & (outer > self.outer_above)
        )
        mask[:, 0] = True
        for level in self.levels:
            mask[:, level] &= mask[:, self.parent[level]]
        return mask


def _scan_batch(
    tree: "VPTree", queries: np.ndarray, k: int, max_radius: float
) -> BatchResult:
    """k-NN for every row of *queries*: one distance pass per slice of the
    batch (so a bounded number of distance cells is held, and a paged store
    is read once per slice), then :func:`_scan_slice` on its outcome."""
    rows = tree.points.shape[0]
    step = max(1, _SCAN_CELLS // rows)
    results = BatchResult()
    for start in range(0, queries.shape[0], step):
        part = queries[start:start + step]
        dists = np.empty((part.shape[0], rows), dtype=np.float64)
        reads, nbytes = _fill(dists, part, tree)
        results.cold_reads += reads
        results.cold_bytes += nbytes
        results.extend(_scan_slice(tree, dists, k, max_radius))
    return results


def _fill(dists: np.ndarray, queries: np.ndarray, tree: "VPTree") -> tuple[int, int]:
    """``dists[w, r] = d(queries[w], row r)`` for every stored row, each row
    scored once per query; returns the cold ``(reads, bytes)`` of the pass.

    A matrix is walked query by query in contiguous row blocks.  A paged
    store yields ``(rows, codes, cold_bytes)`` per page from ``pages()`` —
    the tree rows it holds, their codes, and the bytes read from the device
    if it was not resident (else 0) — and only that one page is held."""
    batch, points = tree.adapter.batch, tree.points
    reads = nbytes = 0
    if isinstance(points, np.ndarray):
        block = max(1, _PASS_CELLS // points.shape[1])
        for row, query in zip(dists, queries):
            for start in range(0, points.shape[0], block):
                row[start:start + block] = batch(query, points[start:start + block])
    else:
        for rows, codes, cold_bytes in points.pages():
            for row, query in zip(dists, queries):
                row[rows] = batch(query, codes)
            if cold_bytes:
                reads += 1
                nbytes += cold_bytes
    return reads, nbytes


def _scan_slice(
    tree: "VPTree", dists: np.ndarray, k: int, max_radius: float
) -> list[SearchResult]:
    """The traversal's exact outcome for each query row of a filled
    ``(W, N)`` distance matrix (see the module docstring for the two
    cases)."""
    in_ball = dists <= max_radius
    fills = in_ball.sum(axis=1) >= k
    results: list[SearchResult] = [
        # the replay: distances read back from the pass just made
        _traverse(tree, k, max_radius, row.item, row.take) if full else None
        for row, full in zip(dists, fills.tolist())
    ]
    bounded = np.flatnonzero(~fills)
    if bounded.size:
        flat = tree.flat()
        reach = flat.reach(dists[bounded], max_radius)
        evals = (reach @ flat.weight).tolist()
        for pos, w in enumerate(bounded.tolist()):
            # Rows the traversal would have offered: inside the ball *and*
            # stored at a vertex it meets.
            rows = np.flatnonzero(in_ball[w])
            rows = rows[reach[pos, flat.vertex_of_row[rows]]]
            found = dists[w, rows]
            # ``rows`` ascends, so a stable sort by distance is the
            # ``(distance, row)`` order ``_KBest.sorted_items`` yields.
            order = np.argsort(found, kind="stable")
            results[w] = (
                [
                    (dist, tree.payloads[row])
                    for dist, row in zip(found[order].tolist(), rows[order].tolist())
                ],
                evals[pos],
            )
    return results


def radius_search(
    tree: "VPTree", query: np.ndarray, radius: float
) -> list[tuple[float, object]]:
    """All elements within *radius* of *query*, ascending by distance."""
    query = np.asarray(query, dtype=np.uint8)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if tree.root is None:
        return []
    hits: list[tuple[float, int]] = []
    _radius_visit(tree, tree.root, query, float(radius), hits)
    hits.sort()
    return [(dist, tree.payloads[idx]) for dist, idx in hits]


def _radius_visit(
    tree: "VPTree",
    node: "VPNode",
    query: np.ndarray,
    radius: float,
    hits: list[tuple[float, int]],
) -> None:
    if node.is_leaf:
        if node.bucket.shape[0]:
            dists = tree.adapter.batch(query, tree.points[node.bucket])
            mask = dists <= radius
            hits.extend(
                (float(d), int(i)) for d, i in zip(dists[mask], node.bucket[mask])
            )
        return

    dist = tree.adapter.pair(query, tree.points[node.vantage_index])
    if dist <= radius:
        hits.append((dist, int(node.vantage_index)))
    # Subtree-level prune via stored bounds (children's vantage points are
    # included in [low, high], so rejecting here cannot lose hits).
    if dist - radius > node.high or dist + radius < node.low:
        return
    if node.left is not None and dist - radius <= node.mu:
        _radius_visit(tree, node.left, query, radius, hits)
    if node.right is not None and dist + radius > node.mu_right:
        _radius_visit(tree, node.right, query, radius, hits)
