"""Nearest-neighbour and radius search over vp-trees (paper section III-C).

Both searches are a single traversal with a shrinking ``tau`` radius.  At an
internal vertex with vantage point ``p`` and radius ``mu`` three cases arise
for the query ball ``B(q, tau)``:

1. entirely inside ``B(p, mu)``   -> right subtree pruned;
2. entirely outside ``B(p, mu)``  -> left subtree pruned;
3. intersecting the boundary      -> both subtrees visited.

The stored lower/upper bounds (``node.low``/``node.high``) tighten case
detection beyond the plain ``mu`` test.

**Executed kernel vs modelled cost.**  A k-NN search is charged the
distance evaluations that traversal makes — one per visited internal vertex
plus the bucket size of every visited leaf — and that figure is returned
beside the hits.  The paper's node evaluates a distance as the walk asks for
it; ours makes *one* pass of ``adapter.batch`` over every stored row per
batch of queries (at the radii Mendel searches with the traversal evaluates
nearly every row anyway) and then reproduces the traversal's outcome exactly
from the ``(W, N)`` matrix, per kind of lane (:func:`_scan_slice`).  Call
the rows inside ``max_radius`` stored at a vertex the walk meets with ``tau``
fixed at ``max_radius`` (:meth:`FlatTree.reach`) the lane's *candidates*:

* fewer than ``k`` candidates — the k-best heap can never fill, ``tau``
  stays at ``max_radius``, every prune test is a fixed predicate of the
  query's distance to one vantage row and the visit set does not depend on
  visit order: it is ``reach(max_radius)``, and the hits are every
  candidate;
* the heap fills, but ``tau`` cannot change the visit set — with ``tau*``
  the k-th smallest candidate distance, ``tau`` only shrinks and never
  falls below ``tau*`` (the heap holds k candidates), and every prune test
  is monotone in ``tau``, so ``reach(tau*) ⊆ visited ⊆ reach(max_radius)``;
  where the two ends are equal the visit set is known.  The hits are the
  *c* candidates below ``tau*`` and ``k - c`` of the ties at ``tau*``: the
  walk meets candidates in arrival order (near-first pre-order rank of the
  vertex, then ``(distance, bucket position)``), a tie enters the heap iff
  fewer than ``k`` earlier candidates are at most ``tau*``, and each later
  row below ``tau*`` evicts the earliest tie held, so the last ``k - c``
  admitted ties stay (:func:`_admitted`);
* otherwise ``tau`` prunes, and which of several equally distant rows
  survive depends on the order vertices are met in: one table for all such
  lanes holds what each leaf bucket could offer, and each lane walks the
  flattened tree over it (:func:`_replay`).

The first two kinds are array work over all their lanes at once, and at the
radii Mendel searches with they are nearly every lane.  The recursive walk
all three reproduce is the test oracle (``tests/vptree/recursive_walk.py``).

There is one search path and one scoring loop (:func:`_fill`): one stacked
metric call scores every query of the batch against a block of stored rows
(at most ``_PASS_CELLS`` code cells and half as many distances), then the
next block.  Only how the blocks are made differs by point store
(:func:`_blocks`): an in-RAM matrix is cut into even contiguous row
slices; a paged store (a spilled node's
:class:`~repro.tier.store.TieredPoints`) hands over each of its pages once,
in order, and consecutive pages are joined into a block.  The paper's node
walks its tree and would touch a page per visited bucket; ours reads all of
a node's pages because the visit set is nearly all of them — the reads
that had to come from the device are counted page by page as the pages
arrive and returned with the results (:class:`BatchResult`), never left in
a shared tally.

**Filter-first search** (:func:`repro.cluster.node.named_knn`, over
:func:`nearest_pairs`) walks no tree and passes over no rows: a row the
identity filter can pass (at most m mismatches) equals its window on one
of ``m + 1`` pigeonhole parts, and the system entry's part-key directory
names, per window, the blocks that do.  Only those rows are read and
scored (where the route names them:
:func:`repro.core.query.parts_selective`).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vptree.tree import VPNode, VPTree

#: ``(distance, payload)`` pairs ascending by distance, and the distance
#: evaluations the search is charged
SearchResult = tuple[list[tuple[float, object]], int]


class BatchResult(list):
    """What a node search returns for a ``(W, L)`` batch — the vp-tree's
    (:func:`knn_search`) or the part path's
    (:func:`repro.cluster.node.named_knn`): one :data:`SearchResult` per
    query row, plus what reading the rows it scored took from the device
    when the point store is paged (both zero over an in-RAM matrix)."""

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
    query.  Mendel passes the largest distance its identity filter could
    ever accept, so bounding is lossless for the query pipeline.
    """
    query = np.asarray(query, dtype=np.uint8)
    queries = query[None, :] if query.ndim == 1 else query
    if queries.ndim != 2 or queries.shape[1] != tree.points.shape[1]:
        raise ValueError(
            f"query shape {query.shape} does not match indexed "
            f"segment length {tree.points.shape[1]}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tree.root is None:
        results = BatchResult(([], 0) for _ in range(queries.shape[0]))
    else:
        results = _scan_batch(tree, queries, k, float(max_radius))
    return results[0] if query.ndim == 1 else results


# -- one distance pass per query ---------------------------------------------------

#: distance cells (queries x rows) held at once by :func:`_scan_batch`; a
#: longer batch is worked through in slices so memory stays bounded (this
#: matrix plus one block of codes, :func:`_blocks`)
_SCAN_CELLS = 1 << 20
#: cells in one block, so in one stacked metric call: at most this many
#: code cells (rows x segment length) and half as many distances (rows x
#: queries).  Beside its result, ``MatrixDistance.batch`` holds one
#: position's scores and a query profile no larger than it: 24 bytes a
#: distance, ~384 KiB a block.  On a 2-core x86 box, with the
#: one-call-a-query kernel, a spilled-node sweep (perfbench
#: ``storage_lifecycle``, whose blocks the code cells bound) read the same
#: ``query_p50_ms`` at 2^15 and 2^16 cells and about twice it at 2^17
#: (32-residue rows: 1,024 / 2,048 / 4,096 to a block)
_PASS_CELLS = 1 << 15


class FlatTree:
    """A vp-tree's structure laid flat (no copy of the point matrix), as the
    three kinds of lane read it.  Where the visit set is known: the vertices
    in pre-order (a parent always sits below its children's positions), each
    carrying the prune tests on the edge from its parent, so the visit sets
    of many queries come out of a few array operations (:meth:`reach`), and
    the order the walk meets them in (:meth:`arrival`).  Where ``tau``
    prunes: a record per internal vertex (``inner``) and the leaf buckets as
    one padded row matrix, which :func:`_replay` walks."""

    def __init__(self, root: "VPNode", rows: int) -> None:
        inf = float("inf")
        parent, via_row, inner_max, outer_min, outer_above, weight, right, mus = (
            [] for _ in range(8)
        )
        levels: list[list[int]] = []
        #: the vertex (vantage or bucket) each point row is stored at
        self.vertex_of_row = np.zeros(rows, dtype=np.intp)
        #: each row's position in its leaf bucket (0 for a vantage row)
        self.bucket_pos = np.zeros(rows, dtype=np.intp)
        #: per internal vertex ``[vantage row, mu, mu_right, low, high, left,
        #: right]``; a child is a position in this list, ``~slot`` of a leaf
        #: bucket, or ``None``
        self.inner: list[list] = []
        buckets: list[np.ndarray] = []
        # A record standing above the root receives the reference to it; the
        # root's own edge entries are never read (it is always met).
        top = [0, 0.0, 0.0, 0.0, 0.0, None, None]
        stack = [(root, 0, top, False, 0)]
        while stack:
            node, above, record, right_side, level = stack.pop()
            via, mu, mu_right, low, high = record[:5]
            vertex = len(parent)
            parent.append(above)
            via_row.append(via)
            # With d the query's distance to the parent's vantage row, this
            # vertex is met iff d - tau <= high (bounds), d + tau >= low
            # (bounds) and its side's mu test holds: d - tau <= mu on the
            # left, d + tau > mu_right on the right.
            inner_max.append(high if right_side else min(high, mu))
            outer_min.append(low)
            outer_above.append(mu_right if right_side else -inf)
            right.append(right_side)
            mus.append(mu)
            if level == len(levels):
                levels.append([])
            levels[level].append(vertex)
            if node.is_leaf:
                record[6 if right_side else 5] = ~len(buckets)
                buckets.append(node.bucket)
                weight.append(node.bucket.shape[0])
                self.vertex_of_row[node.bucket] = vertex
                self.bucket_pos[node.bucket] = np.arange(node.bucket.shape[0])
                continue
            record[6 if right_side else 5] = len(self.inner)
            mine = [node.vantage_index, node.mu, node.mu_right, node.low,
                    node.high, None, None]
            self.inner.append(mine)
            weight.append(1)
            self.vertex_of_row[node.vantage_index] = vertex
            if node.right is not None:
                stack.append((node.right, vertex, mine, True, level + 1))
            if node.left is not None:
                stack.append((node.left, vertex, mine, False, level + 1))
        #: the root, named as a child is
        self.root = top[5]
        self.parent = np.array(parent, dtype=np.intp)
        # Pre-order numbers a parent before its children, so one pass from
        # the last vertex back sums every subtree's size.
        size = np.ones(len(parent), dtype=np.intp)
        for vertex in range(len(parent) - 1, 0, -1):
            size[parent[vertex]] += size[vertex]
        #: vertices in the subtree of the vertex's sibling (0 if it has
        #: none): how far the walk's arrival order moves the vertex when
        #: its sibling is the near side and goes first
        self.sibling_size = size[self.parent] - 1 - size
        self.sibling_size[0] = 0
        #: whether a vertex is its parent's right child
        self.right_side = np.array(right, dtype=bool)
        #: the parent's ``mu``: its near child is the left one iff the
        #: query's distance to its vantage row is at most this
        self.parent_mu = np.array(mus, dtype=np.float64)
        #: the parent's vantage row and the three thresholds described above
        self.via_row = np.array(via_row, dtype=np.intp)
        self.inner_max = np.array(inner_max, dtype=np.float64)
        self.outer_min = np.array(outer_min, dtype=np.float64)
        self.outer_above = np.array(outer_above, dtype=np.float64)
        #: distance evaluations a visit costs: 1, or the leaf's bucket size
        self.weight = np.array(weight, dtype=np.int64)
        #: non-root vertices grouped by depth, shallowest first
        self.levels = [np.array(level, dtype=np.intp) for level in levels[1:]]
        #: vantage rows in ``inner`` order
        self.vantage_rows = np.array([rec[0] for rec in self.inner], dtype=np.intp)
        #: leaf buckets in slot order, each in bucket order: ``(leaves,
        #: widest)`` rows, the short ones padded with -1
        self.bucket_sizes = [bucket.shape[0] for bucket in buckets]
        self.bucket_rows = np.full(
            (len(buckets), max(self.bucket_sizes)), -1, dtype=np.intp
        )
        for slot, bucket in enumerate(buckets):
            self.bucket_rows[slot, :bucket.shape[0]] = bucket

    def passes(self, dists: np.ndarray, tau) -> np.ndarray:
        """``(W, V)`` mask of the vertices whose edge tests pass for each row
        of *dists* ``(W, N)`` at ``tau`` — one radius, or one a row — with
        the parent taken as met: the traversal's own float comparisons,
        each monotone in ``tau``."""
        to_parent = dists[:, self.via_row]
        tau = np.asarray(tau, dtype=np.float64).reshape(-1, 1)
        inner, outer = to_parent - tau, to_parent + tau
        mask = (
            (inner <= self.inner_max)
            & (outer >= self.outer_min)
            & (outer > self.outer_above)
        )
        mask[:, 0] = True
        return mask

    def reach(self, dists: np.ndarray, tau) -> np.ndarray:
        """``(W, V)`` mask of the vertices the traversal meets for each row
        of *dists* while ``tau`` never moves: a vertex is met iff its parent
        is met and its edge tests pass (:meth:`passes`), which no longer
        depends on visit order."""
        mask = self.passes(dists, tau)
        for level in self.levels:
            mask[:, level] &= mask[:, self.parent[level]]
        return mask

    def arrival(self, dists: np.ndarray) -> np.ndarray:
        """``(W, V)`` rank of each vertex in the order the walk meets the
        vertices it visits, for each row of *dists*: pre-order with each
        vertex's near child first, the near child being the left one iff
        the query's distance to the vertex's vantage row is at most
        ``mu``.  A vertex comes one place after its parent, and behind the
        whole of its sibling's subtree when that is the near side."""
        far = (dists[:, self.via_row] > self.parent_mu) != self.right_side
        rank = 1 + far * self.sibling_size
        for level in self.levels:
            rank[:, level] += rank[:, self.parent[level]]
        return rank


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
    """``dists[w, r] = d(queries[w], row r)`` for every stored row: one
    stacked metric call per block (:func:`_blocks`) scores every query
    against it; returns the cold ``(reads, bytes)`` of the pass."""
    batch = tree.adapter.batch
    reads = nbytes = 0
    for rows, codes, block_reads, block_bytes in _blocks(tree.points, len(queries)):
        dists[:, rows] = batch(queries, codes)
        reads += block_reads
        nbytes += block_bytes
    return reads, nbytes


def _blocks(points, width: int):
    """The point store as ``(tree rows, codes, cold reads, cold bytes)``
    blocks of about ``_PASS_CELLS`` code cells and half as many distances
    to *width* queries, the only part of it held at once.

    A matrix is cut into row slices of even size.  A paged store yields
    ``(rows, codes, cold_bytes)`` per page from ``pages()`` — the tree rows
    it holds, their codes, and the bytes read from the device if it was not
    resident (else 0) — and its pages, each taken once and in order, are
    joined until they make a block."""
    block = max(1, _PASS_CELLS // max(points.shape[1], 2 * width))
    if isinstance(points, np.ndarray):
        count = -(-points.shape[0] // block)
        ends = [points.shape[0] * part // count for part in range(count + 1)]
        for start, stop in zip(ends, ends[1:]):
            yield slice(start, stop), points[start:stop], 0, 0
        return
    rows, codes, reads, nbytes, held = [], [], 0, 0, 0
    for page_rows, page_codes, cold_bytes in points.pages():
        rows.append(page_rows)
        codes.append(page_codes)
        held += len(page_rows)
        if cold_bytes:
            reads += 1
            nbytes += cold_bytes
        if held >= block:
            yield np.concatenate(rows), np.concatenate(codes), reads, nbytes
            rows, codes, reads, nbytes, held = [], [], 0, 0, 0
    if rows:
        yield np.concatenate(rows), np.concatenate(codes), reads, nbytes


def _scan_slice(
    tree: "VPTree", dists: np.ndarray, k: int, max_radius: float
) -> list[SearchResult]:
    """The traversal's exact outcome for each query row of a filled ``(W,
    N)`` distance matrix (the module docstring's three kinds of lane)."""
    flat, payloads = tree.flat(), tree.payloads
    width = dists.shape[0]
    in_ball = dists <= max_radius
    met = flat.reach(dists, max_radius)
    fills = np.flatnonzero(np.count_nonzero(in_ball, axis=1) >= k)
    pruned = fills[:0]
    if fills.size:
        # What the walk can offer: rows inside the ball stored at a vertex
        # it may meet.  Its tau never falls below the k-th smallest of them
        # (and stays at the radius where there are fewer than k: then the
        # k-th smallest row stored at a met vertex is outside the ball).
        offered = dists[fills]
        np.copyto(offered, np.inf,
                  where=~met[fills].take(flat.vertex_of_row, axis=1))
        tau = np.full(width, max_radius)
        tau[fills] = np.minimum(
            np.partition(offered, k - 1, axis=1)[:, k - 1], max_radius
        )
        # reach(tau*) = met iff every met vertex passes its tests at tau*
        holds = flat.passes(dists[fills], tau[fills]) | ~met[fills]
        pruned = fills[~holds.all(axis=1)]
        in_ball &= dists <= tau[:, None]
        in_ball[pruned] = False
    # The rows each lane ends with, lane by lane with rows ascending.
    lane, row = np.divmod(np.flatnonzero(in_ball), dists.shape[1])
    kept = met[lane, flat.vertex_of_row[row]]
    lane, row = lane[kept], row[kept]
    found = dists[lane, row]
    if fills.size:
        kept = _admitted(flat, dists, lane, row, found, tau, k)
        lane, row, found = lane[kept], row[kept], found[kept]
    results = list(zip(lane_hits(lane, row, found, width, payloads),
                       (met @ flat.weight).tolist()))
    if pruned.size:
        for w, outcome in zip(pruned.tolist(),
                              _replay(tree, dists[pruned], k, max_radius)):
            results[w] = outcome
    return results


def _admitted(
    flat: FlatTree, dists: np.ndarray, lane: np.ndarray, row: np.ndarray,
    found: np.ndarray, tau: np.ndarray, k: int,
) -> np.ndarray:
    """Which of the candidates ``(lane, row)`` at distance *found* — every
    one at most its lane's ``tau`` — the walk's heap ends with: all of
    them, except on a lane with more than *k*, where ties at ``tau`` must
    go.

    The walk meets candidates in arrival order: the vertex's near-first
    pre-order rank, then ``(distance, bucket position)`` inside a bucket.
    Every row below ``tau`` stays.  A tie at ``tau`` enters the heap iff
    fewer than *k* earlier candidates are at most ``tau`` (only then does
    the heap still hold something farther), and each row below ``tau``
    arriving after the k-th candidate evicts the earliest tie still held:
    the heap ends with the last admitted ties."""
    kept = np.ones(lane.shape[0], dtype=bool)
    crowded = np.bincount(lane, minlength=dists.shape[0]) > k
    (at,) = np.nonzero(crowded[lane])
    if not at.size:
        return kept
    lanes = np.flatnonzero(crowded)
    rank = flat.arrival(dists[lanes])
    sub = np.searchsorted(lanes, lane[at])
    order = np.lexsort((
        flat.bucket_pos[row[at]], found[at],
        rank[sub, flat.vertex_of_row[row[at]]], sub,
    ))
    at, sub = at[order], sub[order]
    counts = np.bincount(sub, minlength=lanes.size)
    starts = np.cumsum(counts) - counts
    position = np.arange(at.size) - starts[sub]
    tie = found[at] == tau[lanes[sub]]
    admitted = np.bincount(sub[tie & (position < k)], minlength=lanes.size)
    late = np.bincount(sub[~tie & (position >= k)], minlength=lanes.size)
    # ties met earlier on the same lane
    earlier = np.cumsum(tie) - tie
    earlier -= earlier[starts[sub]]
    kept[at] = ~tie | ((earlier >= late[sub]) & (earlier < admitted[sub]))
    return kept


def lane_hits(
    lane: np.ndarray, row: np.ndarray, found: np.ndarray, width: int,
    payloads: list,
) -> list[list[tuple[float, object]]]:
    """The rows ``(lane, row)`` at distance *found* — lane by lane, rows
    ascending — as one list of ``(distance, payloads[row])`` pairs for each
    of *width* lanes, in ``(distance, row)`` order: the order the walk's
    heap is read out in.  Sorting by distance and then by lane (both
    stable) leaves each lane's run in that order, so *row* may be any index
    into *payloads* whose entries already come in that order within a
    lane."""
    order = np.lexsort((found, lane))
    ends = np.cumsum(np.bincount(lane, minlength=width)).tolist()
    found = found[order].tolist()
    named = [payloads[at] for at in row[order].tolist()]
    return [
        list(zip(found[start:end], named[start:end]))
        for start, end in zip([0] + ends, ends)
    ]


def _replay(
    tree: "VPTree", dists: np.ndarray, k: int, max_radius: float
) -> list[SearchResult]:
    """The traversal's outcome for each row of *dists* ``(F, N)`` — lanes
    whose ``tau`` shrinks as the k-best heap fills and prunes what the walk
    would otherwise visit.

    First one table for all lanes: per (lane, leaf) the bucket's *k* smallest
    distances in ascending order, ties in bucket order — all the walk could
    ever offer from that bucket, since any ``tau`` it arrives with admits a
    prefix of them.  Then each lane walks :attr:`FlatTree.inner` with an
    explicit stack, near child first; the far child's side test is made when
    it is popped, with the ``tau`` of that moment."""
    flat, payloads, inf = tree.flat(), tree.payloads, float("inf")
    # Padding is NaN: it sorts behind every distance and no comparison below
    # admits it, as none admits a distance outside the ball.
    scores = dists[:, flat.bucket_rows]
    scores[:, flat.bucket_rows < 0] = np.nan
    order = np.argsort(scores, axis=-1, kind="stable")[..., :k]
    best = np.take_along_axis(scores, order, axis=-1)
    rows = flat.bucket_rows[np.arange(order.shape[1])[:, None], order]
    tables = zip(dists[:, flat.vantage_rows].tolist(), best.tolist(), rows.tolist())
    inner, sizes = flat.inner, flat.bucket_sizes
    push, replace = heapq.heappush, heapq.heapreplace
    results = []
    for to_vantage, lane_best, lane_rows in tables:
        # (-distance, arrival, row): the maximum is the first to go and,
        # among equal maxima, the earliest arrival.
        heap: list[tuple[float, int, int]] = []
        arrivals = evals = 0
        tau, full = max_radius, False
        # (vertex, distance to its parent's vantage row, the parent's side
        # test: at most ``mu`` for a left child, above ``mu_right`` for a right)
        stack = [(flat.root, 0.0, inf, -inf)]
        while stack:
            ref, dist, upper, lower = stack.pop()
            if not (dist - tau <= upper and dist + tau > lower):
                continue
            if ref < 0:
                offers = zip(lane_best[~ref], lane_rows[~ref])
                evals += sizes[~ref]
            else:
                row, mu, mu_right, low, high, left, right = inner[ref]
                dist = to_vantage[ref]
                offers = ((dist, row),)
                evals += 1
            for offered, row in offers:
                if full:
                    # Ascending offers: once one is refused so are the rest,
                    # and a refused offer counts no arrival.
                    if not offered < tau:
                        break
                    replace(heap, (-offered, arrivals, row))
                elif offered <= max_radius:
                    push(heap, (-offered, arrivals, row))
                    full = len(heap) == k
                else:
                    break
                arrivals += 1
                if full:
                    tau = -heap[0][0]
            if ref < 0 or dist - tau > high or dist + tau < low:
                continue
            # Last in, first out: the side the query falls on goes in last.
            far, near = (right, dist, inf, mu_right), (left, dist, mu, -inf)
            if dist > mu:
                far, near = near, far
            stack += [side for side in (far, near) if side[0] is not None]
        nearest = sorted((-neg, row) for neg, _, row in heap)
        results.append(([(dist, payloads[row]) for dist, row in nearest], evals))
    return results


# -- filter-first search: pigeonhole part keys -----------------------------------


def nearest_pairs(
    adapter, queries: np.ndarray, k: int, max_radius: float,
    lanes: np.ndarray, rows: np.ndarray, codes_of,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score the pairs ``(lanes[j], rows[j])`` — query row ``lanes[j]`` of
    *queries* against the codes ``codes_of(start, stop)`` gives for pairs
    ``start:stop`` — by ``adapter.pairs``, ``_PASS_CELLS`` pairs a call,
    keeping only each lane's *k* nearest inside *max_radius* in between.
    Returns ``(lane, pair, distance)`` of those — ``pair`` their positions
    ``j`` — in ``(lane, distance, row)`` order, and the pairs scored per
    lane.  A lane's result depends on its own pairs alone, so lanes of
    several trees (each its own rows) may share one call."""
    scored = np.bincount(lanes, minlength=len(queries))
    nearest = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
    for start in range(0, lanes.size, _PASS_CELLS):
        stop = start + _PASS_CELLS
        nearest = _score(adapter, queries, k, max_radius, nearest, lanes, rows,
                         start, codes_of(start, stop))
    return (*nearest, scored)


def _score(adapter, queries: np.ndarray, k: int, max_radius: float,
           nearest: tuple, lanes: np.ndarray, rows: np.ndarray, start: int,
           codes: np.ndarray) -> tuple:
    """Score the pairs from *start* on that hold *codes* in one
    ``adapter.pairs`` call; return *nearest* ``(lane, pair, distance)``
    merged with those inside *max_radius*, each lane's *k* nearest in
    ``(distance, row)`` order."""
    stop = start + len(codes)
    found = adapter.pairs(queries[lanes[start:stop]], codes)
    inside = found <= max_radius
    lane, pair, found = (
        np.concatenate([held, new[inside]]) for held, new
        in zip(nearest, (lanes[start:stop], np.arange(start, stop), found)))
    order = np.lexsort((rows[pair], found, lane))
    lane, pair, found = lane[order], pair[order], found[order]
    counts = np.bincount(lane, minlength=len(queries))
    keep = np.arange(lane.size) - (np.cumsum(counts) - counts)[lane] < k
    return lane[keep], pair[keep], found[keep]


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
