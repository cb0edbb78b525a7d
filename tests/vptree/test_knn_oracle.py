"""Oracle tests for vp-tree k-NN, under the chaos-seed matrix.

Four references; only the last shares the executed kernel's distance pass:

* **brute force** — the distances returned are the k smallest of a full
  scan inside the radius;
* **the walk** — section III-C's traversal itself, recursive, vertex by
  vertex, calling the metric for each vantage row and bucket it meets
  (``tests/vptree/recursive_walk.py``: test-only, since every point store
  is searched by a scan whose lanes are answered from flat arrays, in
  closed form or, where tau prunes, by a replay); its evaluation count is
  checked against the adapter's own call counter, so ``evals`` is what
  traversal really evaluates;
* **row by row** — a ``(W, L)`` batch answers exactly as W ``(L,)`` calls;
* **paged** — the same tree over a point store that is not an ``ndarray``
  and hands its rows over page by page (how a spilled node looks), with
  pages that cut across buckets and straddle the distance pass's blocks,
  and at the end of the file a real spilled ``StorageNode``, also against
  a pass that scores one page at a time.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cluster.node import StorageNode
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import HammingDistance, default_distance
from repro.tier import METHOD_RAW, BlockCache, TierConfig
from repro.vptree import DynamicVPTree, VPTree
from tests.vptree.recursive_walk import traverse

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
INF = float("inf")

#: metric name -> (metric, alphabet size, segment length, radii: zero, the
#: identity filter's radius at i = 0.7, a wide one, unbounded)
METRICS = {
    "hamming": (HammingDistance(), 4, 10, (0.0, 3.0, 7.0, INF)),
    "matrix": (default_distance(PROTEIN), 20, 8, (0.0, 30.0, 70.0, INF)),
}


class PagedRows:
    """Stands in for ``TieredPoints``: not an ``ndarray``, read through
    ``pages()`` or, for named rows, ``take()``.  Rows are dealt to pages in a shuffled order, *page_rows* a
    page, so no page lines up with a bucket; every other page claims to be
    cold, each for bytes of its own.  It tallies, page by page, the laps
    made over it and the cold reads it handed over."""

    def __init__(self, rows: np.ndarray, page_rows: int = 7) -> None:
        self._rows = rows
        self.shape = rows.shape
        order = np.random.default_rng(len(rows)).permutation(len(rows))
        self._pages = [
            order[start:start + page_rows]
            for start in range(0, len(rows), page_rows)
        ]
        self.cold_pages = len(self._pages[::2])
        self.laps = self.reads = self.nbytes = 0

    def pages(self):
        self.laps += 1
        for number, rows in enumerate(self._pages):
            cold_bytes = 0 if number % 2 else 100 + number
            self.reads += cold_bytes > 0
            self.nbytes += cold_bytes
            yield rows, self._rows[rows], cold_bytes

    def take(self, rows):
        """The codes of *rows*, reading only the pages holding one, each
        once: ``(codes, cold reads, cold bytes)`` of this call."""
        wanted = set(rows.tolist())
        reads = nbytes = 0
        for number, page in enumerate(self._pages):
            if number % 2 == 0 and wanted.intersection(page.tolist()):
                reads, nbytes = reads + 1, nbytes + 100 + number
        self.reads += reads
        self.nbytes += nbytes
        return self._rows[rows], reads, nbytes


def paged(tree, queries, k, radius, page_rows=7):
    """``knn`` of a batch over a paged twin of *tree*; also checks that the
    cold reads the search reports are the sum of those its pages carried,
    every page once per pass (one pass per slice of the batch)."""
    twin = copy.copy(tree)
    twin.points = store = PagedRows(np.asarray(tree.points), page_rows)
    found = twin.knn(queries, k, max_radius=radius)
    assert (found.cold_reads, found.cold_bytes) == (store.reads, store.nbytes)
    assert store.reads == store.laps * store.cold_pages
    if len(tree):
        assert store.laps >= 1
    return found


def walk(tree, query, k, radius, points=None):
    """``knn`` by lazy traversal of *tree*, distances evaluated on demand
    over *points* (default: the tree's own matrix); also checks that the
    evals it reports are the metric calls it made."""
    points = np.asarray(tree.points) if points is None else points
    adapter = tree.adapter
    before = adapter.pair_evaluations
    hits, evals = traverse(
        tree, k, radius,
        lambda row: adapter.pair(query, points[row]),
        lambda rows: adapter.batch(query, points[rows]),
    )
    assert evals == adapter.pair_evaluations - before
    return hits, evals


def brute(metric, points, query, k, radius):
    dists = np.sort(metric.batch(query, points)) if len(points) else np.empty(0)
    return dists[dists <= radius][:k].tolist()


def family(rng, n, alphabet, length):
    """Random rows with planted duplicates and one-residue neighbours, so
    distance ties (also at tau) are the rule rather than the exception."""
    points = rng.integers(0, alphabet, (n, length)).astype(np.uint8)
    if n > 4:
        copies = rng.integers(0, n, (2, n // 5))
        points[copies[0]] = points[copies[1]]
        near = rng.integers(0, n, (2, n // 5))
        points[near[0]] = points[near[1]]
        points[near[0], rng.integers(0, length)] = rng.integers(0, alphabet)
    return points


def probes(rng, points, alphabet, count=12):
    """Stored rows, lightly mutated stored rows and unrelated rows."""
    length = points.shape[1]
    if not len(points):
        return rng.integers(0, alphabet, (count, length)).astype(np.uint8)
    out = points[rng.integers(0, len(points), count)].copy()
    noise = rng.random(out.shape) < 0.15
    noise[: count // 3] = False
    out[noise] = rng.integers(0, alphabet, int(noise.sum()))
    out[-2:] = rng.integers(0, alphabet, (2, length))
    return out


def check(tree, metric, queries, radii, ks, page_rows=7):
    points = np.asarray(tree.points)
    for radius in radii:
        if radius < INF:  # the radius search shares the prune tests
            for query in queries:
                assert [d for d, _ in tree.radius_search(query, radius)] == brute(
                    metric, points, query, len(points), radius
                )
    for k in ks:
        for radius in radii:
            batch = tree.knn(queries, k, max_radius=radius)
            assert len(batch) == len(queries)
            assert (batch.cold_reads, batch.cold_bytes) == (0, 0)
            assert paged(tree, queries, k, radius, page_rows) == batch
            for query, (hits, evals) in zip(queries, batch):
                context = f"k={k} radius={radius} query={query.tolist()}"
                assert tree.knn(query, k, max_radius=radius) == (hits, evals), context
                assert (hits, evals) == walk(tree, query, k, radius), context
                assert [d for d, _ in hits] == brute(
                    metric, points, query, k, radius
                ), context
                for dist, row in hits:
                    assert dist == float(metric(query, points[row])), context


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize("bucket", [1, 8, 32])
def test_static_tree(name, bucket):
    metric, alphabet, length, radii = METRICS[name]
    rng = np.random.default_rng([SEED, bucket, len(name)])
    n = int(rng.integers(120, 260))
    points = family(rng, n, alphabet, length)
    tree = VPTree(points, metric, bucket_capacity=bucket, rng=SEED)
    tree.validate_invariants()
    check(tree, metric, probes(rng, points, alphabet), radii, (1, 6, n + 1))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_blocked_passes_change_nothing(name, monkeypatch):
    """The scan works through long batches in slices and tall matrices in
    row blocks; with both budgets shrunk so every search crosses several
    of each, answers and costs are the same."""
    from repro.vptree import search

    monkeypatch.setattr(search, "_SCAN_CELLS", 700)   # 2-3 queries a slice
    monkeypatch.setattr(search, "_PASS_CELLS", 400)   # ~40 rows a block
    metric, alphabet, length, radii = METRICS[name]
    rng = np.random.default_rng([SEED, 7, len(name)])
    points = family(rng, 230, alphabet, length)
    tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
    check(tree, metric, probes(rng, points, alphabet), radii, (1, 6, 231))


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize(
    "page", ["1", "7", "block-1", "block", "block+1", "more than N"]
)
def test_pages_that_straddle_a_block(name, page, monkeypatch):
    """A paged store's pages are joined until they make a block of
    ``_PASS_CELLS`` cells: with pages of one row, of 7, one row short of a
    block, a block, one row over, and one page holding every row, answers,
    costs and cold reads are those of the RAM scan."""
    from repro.vptree import search

    monkeypatch.setattr(search, "_PASS_CELLS", 400)
    metric, alphabet, length, radii = METRICS[name]
    block = 400 // length
    rng = np.random.default_rng([SEED, 12, len(name)])
    points = family(rng, 230, alphabet, length)
    page_rows = {"1": 1, "7": 7, "block-1": block - 1, "block": block,
                 "block+1": block + 1, "more than N": len(points) + 1}[page]
    tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
    check(tree, metric, probes(rng, points, alphabet, 6), radii, (1, 6, 231),
          page_rows)


@pytest.mark.parametrize("name", sorted(METRICS))
class TestDegenerate:
    def test_empty_tree(self, name):
        metric, alphabet, length, radii = METRICS[name]
        rng = np.random.default_rng([SEED, 1])
        empty = np.empty((0, length), dtype=np.uint8)
        queries = probes(rng, empty, alphabet, count=3)
        for tree in (VPTree(empty, metric), DynamicVPTree(metric, length)):
            assert tree.knn(queries, 3) == [([], 0)] * 3
            assert tree.knn(queries[0], 3, max_radius=0.0) == ([], 0)
            assert tree.knn(queries[:0], 3) == []

    def test_one_row(self, name):
        metric, alphabet, length, radii = METRICS[name]
        rng = np.random.default_rng([SEED, 2])
        points = family(rng, 1, alphabet, length)
        tree = VPTree(points, metric, rng=SEED)
        check(tree, metric, np.vstack([points, probes(rng, points, alphabet, 3)]),
              radii, (1, 2))

    def test_all_identical_rows(self, name):
        metric, alphabet, length, radii = METRICS[name]
        rng = np.random.default_rng([SEED, 3])
        row = rng.integers(0, alphabet, length).astype(np.uint8)
        points = np.tile(row, (50, 1))
        other = (row + 1) % alphabet
        tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
        tree.validate_invariants()
        check(tree, metric, np.stack([row, other.astype(np.uint8)]),
              radii, (1, 6, 51))

    def test_ties_everywhere(self, name):
        """A two-letter alphabet: most vantage distances tie at the median,
        so nearly every split is the forced one (ties on both sides of
        ``mu``) and most searches have several rows at exactly tau."""
        metric, _alphabet, length, radii = METRICS[name]
        rng = np.random.default_rng([SEED, 4])
        points = family(rng, 200, 2, length)
        tree = VPTree(points, metric, bucket_capacity=4, rng=SEED)
        tree.validate_invariants()
        check(tree, metric, probes(rng, points, 2), radii, (1, 6, 201))


    def test_ties_at_the_kth_distance(self, name):
        """Rows at exactly the k-th distance outnumber the heap's free slots
        and lie on both sides of nearer rows in walk order: which of them
        stay is decided by arrival order alone, bucket by bucket."""
        metric, alphabet, length, _radii = METRICS[name]
        rng = np.random.default_rng([SEED, 9])
        query = rng.integers(0, alphabet, length).astype(np.uint8)
        other = ((query + 1) % alphabet).astype(np.uint8)

        def mutant(places):
            row = query.copy()
            row[list(places)] = other[list(places)]
            return row

        points = np.stack(
            [query] * 4                                      # 4 nearer rows
            + [mutant([0, 1])] * 14                          # one 14-way tie
            + [mutant(range(length))] * 30                   # far filler
        )
        points = points[rng.permutation(len(points))]
        tied = float(metric(query, mutant([0, 1])))
        assert 0.0 < tied < float(metric(query, mutant(range(length))))
        for bucket in (1, 4, 64):
            tree = VPTree(points, metric, bucket_capacity=bucket, rng=SEED)
            for k in (5, 9, 17):
                hits, _ = tree.knn(query, k)
                assert sum(dist == tied for dist, _ in hits) == min(k, 18) - 4
            check(tree, metric, query[None, :], (tied, INF), (1, 5, 9, 17, 18, 19))

    def test_k_at_and_above_the_bucket_size(self, name):
        """One bucket cannot fill the heap: ``k`` equal to, and several
        times, the capacity, on searches whose heap does fill."""
        metric, alphabet, length, radii = METRICS[name]
        rng = np.random.default_rng([SEED, 10])
        points = family(rng, 150, alphabet, length)
        tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
        check(tree, metric, probes(rng, points, alphabet, 6), radii[2:], (8, 9, 40))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_a_batch_of_both_lane_kinds(name):
    """One batch in which some queries have ``k`` rows inside the radius
    (their tau shrinks) and some do not (it never moves): each comes out of
    its own code path, in its row of the batch."""
    metric, alphabet, length, (_zero, filter_radius, _wide, _inf) = METRICS[name]
    rng = np.random.default_rng([SEED, 11, len(name)])
    points = family(rng, 200, alphabet, length)
    points[:12] = points[0]                      # a dense spot
    points[12:24, 0] = (points[0, 0] + 1) % alphabet
    queries = np.vstack([points[:3], probes(rng, points[24:], alphabet, 9)])
    k = 6
    inside = np.array([
        (metric.batch(query, points) <= filter_radius).sum() for query in queries
    ])
    assert (inside >= k).any() and (inside < k).any(), inside
    for bucket in (4, 32):
        tree = VPTree(points, metric, bucket_capacity=bucket, rng=SEED)
        check(tree, metric, queries, (filter_radius,), (k,))


def plant_ties(rng, metric, points, query, k, count):
    """*points* with *count* of the rows farther than the query's k-th
    nearest overwritten by copies of a row at exactly that distance, so
    more than the heap's free slots tie at its final ``tau``; returns the
    points and that distance."""
    dists = metric.batch(query, points)
    kth = float(np.sort(dists)[k - 1])
    farther = np.flatnonzero(dists > kth)
    points = points.copy()
    targets = rng.choice(farther, size=min(count, farther.size), replace=False)
    points[targets] = points[rng.choice(np.flatnonzero(dists == kth))]
    return points, kth


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(METRICS)),
    draw=st.integers(0, 2**32 - 1),
    n=st.integers(20, 160),
    bucket=st.sampled_from([1, 2, 5, 16]),
    k=st.integers(1, 12),
    ties=st.integers(1, 12),
    wide=st.booleans(),
    shuffled=st.booleans(),
)
def test_ties_at_the_final_tau(name, draw, n, bucket, k, ties, wide, shuffled):
    """Random ``family()`` trees with extra rows planted at exactly the
    k-th distance of a query: more rows tie at the heap's final ``tau``
    than it has room for, spread over buckets and vantage rows.  Hits, the
    order of tied hits and ``evals`` are the recursive walk's, lane by lane,
    whichever kind of lane each query turns out to be — also when every
    leaf bucket holds its rows out of row order (a tie's arrival inside a
    bucket follows the bucket, not the row number)."""
    metric, alphabet, length, (_zero, filter_radius, _wide, _inf) = METRICS[name]
    rng = np.random.default_rng(draw)
    points = family(rng, n, alphabet, length)
    query = points[rng.integers(0, n)].copy()
    query[rng.integers(0, length)] = rng.integers(0, alphabet)
    k = min(k, n)
    points, kth = plant_ties(rng, metric, points, query, k, ties)
    radius = INF if wide or kth > filter_radius else filter_radius
    tree = VPTree(points, metric, bucket_capacity=bucket, rng=draw)
    if shuffled:
        for leaf in leaves(tree.root):
            rng.shuffle(leaf.bucket)
    queries = np.vstack([query, probes(rng, points, alphabet, 3)])
    for lane, (hits, evals) in zip(queries, tree.knn(queries, k, max_radius=radius)):
        assert (hits, evals) == walk(tree, lane, k, radius)


def test_a_batch_of_all_three_lane_kinds(monkeypatch):
    """One batch holding each kind of lane: strangers with fewer than
    ``k`` rows in the ball, a query whose ``k``-th candidate sits at exactly the
    radius among more ties than the heap holds (its heap fills, but ``tau``
    cannot fall below the radius, so nothing is pruned), and copies of a
    row stored many times (``tau`` falls to 0 and prunes the walk).  Only
    the last are handed to the replay, and every lane answers as the walk
    does."""
    from repro.vptree import search

    metric, alphabet, length, _radii = METRICS["hamming"]
    rng = np.random.default_rng([SEED, 13])
    radius, k = 3.0, 6
    near = rng.integers(0, alphabet, length).astype(np.uint8)
    far = ((near + 2) % alphabet).astype(np.uint8)

    def moved(row, places):
        row = row.copy()
        row[places] = (row[places] + 1) % alphabet
        return row

    points = np.vstack(
        [moved(near, [i]) for i in range(3)]                       # d = 1
        + [moved(near, rng.choice(length, 3, replace=False))
           for _ in range(10)]                                     # d = 3
        + [far] * 8
        + [rng.integers(0, alphabet, (150, length)).astype(np.uint8)]
    )
    points = points[rng.permutation(len(points))]
    strangers = rng.integers(0, alphabet, (5, length)).astype(np.uint8)
    queries = np.vstack([near, far, far, strangers])
    dists = np.stack([metric.batch(query, points) for query in queries])
    inside = (dists <= radius).sum(axis=1)
    assert (inside[:3] >= k).all() and (inside[3:] < k).all(), inside
    assert (dists[0] < radius).sum() < k < (dists[0] <= radius).sum()
    handed = []
    replay = search._replay

    def counting(tree, lanes, *args):
        handed.extend(lanes.tolist())
        return replay(tree, lanes, *args)

    monkeypatch.setattr(search, "_replay", counting)
    for bucket in (1, 4, 16):
        handed.clear()
        tree = VPTree(points, metric, bucket_capacity=bucket, rng=SEED)
        batch = tree.knn(queries, k, max_radius=radius)
        assert sorted(map(tuple, handed)) == sorted(map(tuple, dists[1:3].tolist()))
        for query, found in zip(queries, batch):
            assert found == walk(tree, query, k, radius)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_inserts_rebuild_the_arrival_arrays(name):
    """``DynamicVPTree`` drops its flattened tree on every insert, the
    arrays the closed-form lanes read (subtree sizes, sides, the parent's
    ``mu``, each row's bucket position) included: after each insert the
    next search sees arrays equal to a fresh flattening of the new tree,
    and every lane answers as the walk does."""
    from repro.vptree.search import FlatTree

    metric, alphabet, length, _radii = METRICS[name]
    rng = np.random.default_rng([SEED, 14, len(name)])
    points = family(rng, 120, alphabet, length)
    tree = DynamicVPTree(metric, length, bucket_capacity=4, rng=SEED)
    tree.insert_batch(points[:80])
    for row in points[80:]:
        before = tree.flat()
        tree.insert(row)
        queries = np.vstack([row, row, points[rng.integers(0, 80, 2)]])
        for query, found in zip(queries, tree.knn(queries, 3, max_radius=INF)):
            assert found == walk(tree, query, 3, INF)
        flat = tree.flat()
        assert flat is not before
        fresh = FlatTree(tree.root, len(tree))
        for array in ("sibling_size", "right_side", "parent_mu", "bucket_pos",
                      "vertex_of_row", "via_row"):
            assert np.array_equal(getattr(flat, array), getattr(fresh, array)), array
        assert flat.bucket_pos.shape == (len(tree),)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_every_dynamic_mutation_kind(name):
    """Searches interleaved with inserts: each kind of structural change —
    bucket append, in-place subtree rebuild, root rebuild (by a full tree
    and by a large batch) — must show in the very next search, on the
    bounded path (flattened tree) and the replayed one alike."""
    metric, alphabet, length, radii = METRICS[name]
    rng = np.random.default_rng([SEED, 5, len(name)])
    tree = DynamicVPTree(metric, length, bucket_capacity=4, rng=SEED)
    points = family(rng, 90, alphabet, length)
    seen = {"append": 0, "subtree": 0, "root": 0}
    for step, row in enumerate(points[:60]):
        rebalances, rebuilds = tree.rebalance_count, tree.full_rebuild_count
        tree.insert(row)
        kind = ("root" if tree.full_rebuild_count > rebuilds
                else "subtree" if tree.rebalance_count > rebalances
                else "append")
        seen[kind] += 1
        # the new row, a stored neighbour and a stranger; every radius on
        # the first steps of each kind, the filter radius afterwards
        queries = np.stack([row, points[step // 2], points[89 - step % 5]])
        first = seen[kind] <= 3
        check(tree, metric, queries, radii if first else radii[1:2],
              (1, 6, len(tree) + 1) if first else (6, len(tree) + 1))
    assert all(seen.values()), seen
    tree.insert_batch(points[60:])  # large batch: one full rebuild
    assert len(tree) == 90
    check(tree, metric, probes(rng, points, alphabet, 6), radii, (1, 6, 91))


def test_inserts_widen_the_bounds_above_them():
    """Regression: ``insert`` used to leave ``low``/``high`` of the vertices
    above the new row untouched, so a bounded search could reject a subtree
    that now held an in-range row (even a radius-0 search for the row just
    inserted).  40 trees x 60 bounded searches, none may miss a row a full
    scan finds."""
    metric, alphabet, length, (_zero, filter_radius, _wide, _inf) = METRICS["matrix"]
    missed = searches = 0
    for case in range(40):
        rng = np.random.default_rng([SEED, 6, case])
        tree = DynamicVPTree(metric, length, bucket_capacity=8, rng=case)
        base = rng.integers(0, alphabet, (200, length)).astype(np.uint8)
        tree.insert_batch(base)
        singles = base[rng.integers(0, 200, 40)].copy()
        singles[np.arange(40), rng.integers(0, length, 40)] = rng.integers(
            0, alphabet, 40
        )
        for row in singles:
            tree.insert(row)
        points = np.asarray(tree.points)
        queries = np.vstack([singles[:30], probes(rng, points, alphabet, 30)])
        radii = [0.0] * 30 + [filter_radius] * 30
        for query, radius in zip(queries, radii):
            hits, _ = tree.knn(query, len(tree) + 1, max_radius=radius)
            want = brute(metric, points, query, len(tree) + 1, radius)
            searches += 1
            missed += [d for d, _ in hits] != want
    assert searches == 2400
    assert missed == 0


# -- a real spilled node ----------------------------------------------------------


def spilled_node(cache_bytes, rows=1500, page_rows=256):
    """One node shaped like perfbench's D2 — 32-residue blocks in 512-row
    buckets on 256-row pages, so a bucket spans pages — and its RAM codes."""
    rng = np.random.default_rng([SEED, 8])
    node = StorageNode(
        node_id="g00.n0", group_id="g00",
        metric_factory=lambda: default_distance(PROTEIN),
        segment_length=32, bucket_capacity=512, rng_seed=SEED,
    )
    codes = family(rng, rows, 20, 32)
    node.store_blocks(codes, list(range(rows)))
    ram = np.asarray(node.tree.points).copy()
    node.attach_tier(
        BlockCache(cache_bytes),
        TierConfig(page_rows=page_rows, alphabet_size=20),
    )
    node.spill()
    assert node.tiered
    assert max(len(leaf.bucket) for leaf in leaves(node.tree.root)) > page_rows
    return node, ram, probes(rng, ram, 20, count=9)


def leaves(vertex):
    if vertex.is_leaf:
        return [vertex]
    return [leaf for child in (vertex.left, vertex.right) if child is not None
            for leaf in leaves(child)]


def check_spilled(node, points, queries):
    """Paged scan == all-RAM scan == lazy walk == brute force, hits and
    evals, where *points* is what the node's pages decode to; returns the
    cold reads of the calls made."""
    tree, metric = node.tree, node.tree.adapter.metric
    twin = copy.copy(tree)
    twin.points = points
    seeks = nbytes = 0
    for k, radius in ((1, INF), (6, 96.0), (6, INF), (len(tree) + 1, 96.0)):
        searches, reads = node.local_knn(queries, k, max_radius=radius)
        assert reads.seconds == node.tier.io_seconds(reads.seeks, reads.nbytes)
        seeks, nbytes = seeks + reads.seeks, nbytes + reads.nbytes
        scanned = twin.knn(queries, k, max_radius=radius)
        for query, (hits, cost), in_ram in zip(queries, searches, scanned):
            assert (hits, cost.evals) == in_ram
            assert (hits, cost.evals) == walk(tree, query, k, radius, points)
            assert [d for d, _ in hits] == brute(metric, points, query, k, radius)
    return seeks, nbytes


@pytest.mark.parametrize("cache_pages", [0, 1, 64])
def test_spilled_node(cache_pages):
    """No cache at all (every read bypasses admission), a cache of one
    page, and one that holds the node: the same answers, and each call is
    charged exactly the device reads it caused."""
    page_bytes = 256 * 32
    node, ram, queries = spilled_node(cache_pages * page_bytes)
    tier, cache = node.tier, node.tier.cache
    data_pages = len(tier._page_rows) - len(tier._pinned_arrays)
    assert data_pages >= 5
    before = tier.total_seeks, tier.total_bytes
    seeks, nbytes = check_spilled(node, ram, queries)
    assert (tier.total_seeks - before[0], tier.total_bytes - before[1]) == (seeks, nbytes)
    # Four passes.  A fitting cache is read into once; a cache of one full
    # page hands each later pass what the one before it read last.
    if cache_pages == 1:
        assert 3 * data_pages < seeks <= 4 * data_pages
        assert 0 < cache.resident_bytes <= page_bytes
    else:
        assert seeks == (4 if cache_pages == 0 else 1) * data_pages
        assert cache.resident_pages == (0 if cache_pages == 0 else data_pages)


def test_spilled_node_with_an_undecodable_page():
    """A page whose payload no longer decodes is served as placeholder rows
    (what ``materialize`` reads too): the search runs, is charged for the
    read every time, and no hit from that page passes the verified read."""
    node, ram, queries = spilled_node(64 * 256 * 32)
    tier = node.tier
    rotten = next(
        index for index, meta in enumerate(tier.reader.pages)
        if index not in tier._pinned_arrays and meta.method != METHOD_RAW
    )
    lost = set(tier.reader.pages[rotten].block_ids)
    tier.corrupt_block(tier.reader.pages[rotten].block_ids[0])
    points = np.asarray(node.tree.points)
    if points[tier._page_rows[rotten]].any():
        pytest.skip("the flipped bit left the payload decodable")
    kept = np.setdiff1d(np.arange(len(ram)), tier._page_rows[rotten])
    assert np.array_equal(points[kept], ram[kept])
    check_spilled(node, points, queries)
    searches, reads = node.local_knn(queries, len(ram) + 1)
    assert reads.seeks == 1  # the rest is resident; the rotten page never is
    for hits, _ in searches:
        assert len(hits) == len(ram)
        assert {b for _, b in hits if not node.verify_blocks([b])[0]} == lost


def fill_window_at_a_time(dists, queries, tree):
    """The RAM reference feeder: each window scored against every stored
    row by its own one-query call."""
    for row, query in zip(dists, queries):
        row[:] = tree.adapter.batch(query, tree.points)
    return 0, 0


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize("pass_cells", [400, None])
def test_one_stacked_call_a_block_scores_as_a_call_a_window_does(
    name, pass_cells, monkeypatch
):
    """An all-RAM tree searched with batches of 1 to 40 windows, k and
    radii, its rows cut into blocks (several with the budget shrunk): one
    stacked call a block gives the hits and evals of one call a window, and
    the adapter counts the same distance evaluations."""
    from repro.vptree import search

    if pass_cells is not None:
        monkeypatch.setattr(search, "_PASS_CELLS", pass_cells)
    metric, alphabet, length, radii = METRICS[name]
    rng = np.random.default_rng([SEED, 13, len(name)])
    points = family(rng, 600, alphabet, length)
    queries = probes(rng, points, alphabet, 40)
    outcomes = []
    for fill in (search._fill, fill_window_at_a_time):
        monkeypatch.setattr(search, "_fill", fill)
        tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
        before = tree.adapter.pair_evaluations
        found = [
            tree.knn(queries[start:stop], k, max_radius=radius)
            for start, stop in ((0, 1), (1, 14), (0, 40))
            for k in (1, 6, 601)
            for radius in radii
        ]
        outcomes.append((found, tree.adapter.pair_evaluations - before))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 3 * len(radii) * (1 + 13 + 40) * len(points)


@pytest.mark.parametrize("letters,length", [(20, 8), (256, 8), (256, 32)])
def test_a_wide_stack_holds_bounded_memory(letters, length):
    """2,000 windows against a 60-row node fill their ``(W, N)`` matrix
    holding, beside it, one block's stacked result, one position's scores
    and a query profile, each at most ``_PASS_CELLS / 2`` distances (8
    bytes): 12 x ``_PASS_CELLS`` bytes, plus the index copies ``take``
    makes.  A 256-letter profile of 32 positions is 64 KiB a window, so
    the stack is scored in sub-stacks."""
    import tracemalloc

    from repro.seq.distance import MatrixDistance
    from repro.vptree import search

    rng = np.random.default_rng([SEED, 14, letters])
    places = rng.integers(0, 1000, (letters, 3))
    metric = MatrixDistance(np.abs(places[:, None] - places[None]).sum(axis=-1))
    points = rng.integers(0, letters, (60, length)).astype(np.uint8)
    queries = rng.integers(0, letters, (2000, length)).astype(np.uint8)
    queries[0] = points[:, -1] = letters - 1
    tree = VPTree(points, metric, bucket_capacity=8, rng=SEED)
    dists = np.empty((len(queries), len(points)))
    tracemalloc.start()
    try:
        search._fill(dists, queries, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * search._PASS_CELLS + 16 * 1024, peak
    assert dists.tobytes() == np.array(
        [metric.batch(query, points) for query in queries]
    ).tobytes()


def fill_page_at_a_time(dists, queries, tree):
    """The reference feeder: every query scored against each page as it
    arrives, no page joined to another."""
    reads = nbytes = 0
    for rows, codes, cold_bytes in tree.points.pages():
        for row, query in zip(dists, queries):
            row[rows] = tree.adapter.batch(query, codes)
        reads += cold_bytes > 0
        nbytes += cold_bytes
    return reads, nbytes


def test_blocks_take_pages_as_a_page_at_a_time_pass_does(monkeypatch):
    """A spilled node of 50 data pages of at most 64 rows, several to a
    block, behind a cache of 10% of its bytes, swept with window batches of
    several sizes, k and radii: joining pages into blocks takes and admits
    them in the order a page-at-a-time pass does, so the answers, each
    call's reads, the cache's counters and the device totals are equal."""
    from repro.vptree import search

    rows = 3000
    assert 2 * 64 < search._PASS_CELLS // 32 < rows
    outcomes = []
    for fill in (search._fill, fill_page_at_a_time):
        monkeypatch.setattr(search, "_fill", fill)
        node, _ram, queries = spilled_node(rows * 32 // 10, rows, page_rows=64)
        calls = [
            node.local_knn(queries[start:stop], k, max_radius=radius)
            for start, stop in ((0, 1), (1, 9), (0, 9), (4, 6))
            for k, radius in ((1, INF), (6, 96.0), (rows + 1, 96.0))
        ]
        tier = node.tier
        outcomes.append((calls, tier.cache.stats(), tier.total_seeks, tier.total_bytes))
    assert outcomes[0] == outcomes[1]
    stats = outcomes[0][1]
    assert stats["hits"] and stats["misses"] and stats["evictions"], stats
