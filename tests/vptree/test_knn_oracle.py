"""Oracle tests for vp-tree k-NN, under the chaos-seed matrix.

Three references, none of which shares code with the executed kernel's
distance pass:

* **brute force** — the distances returned are the k smallest of a full
  scan inside the radius;
* **the walk** — the same tree over a point store that is not an
  ``ndarray`` (how a spilled node looks), which makes ``knn`` traverse
  vertex by vertex calling the metric; its evaluation count is checked
  against the adapter's own call counter, so ``evals`` is what traversal
  really evaluates;
* **row by row** — a ``(W, L)`` batch answers exactly as W ``(L,)`` calls.
"""

import copy
import os

import numpy as np
import pytest

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import HammingDistance, default_distance
from repro.vptree import DynamicVPTree, VPTree

SEED = int(os.environ.get("CHAOS_SEED", "0"))
INF = float("inf")

#: metric name -> (metric, alphabet size, segment length, radii: zero, the
#: identity filter's radius at i = 0.7, a wide one, unbounded)
METRICS = {
    "hamming": (HammingDistance(), 4, 10, (0.0, 3.0, 7.0, INF)),
    "matrix": (default_distance(PROTEIN), 20, 8, (0.0, 30.0, 70.0, INF)),
}


class PagedRows:
    """Stands in for ``TieredPoints``: same reads, not an ``ndarray``."""

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = rows
        self.shape = rows.shape

    def __getitem__(self, key):
        return self._rows[key]


def walk(tree, query, k, radius):
    """``knn`` by lazy traversal on a twin of *tree*; also checks that the
    evals it reports are the metric calls it made."""
    twin = copy.copy(tree)
    twin.points = PagedRows(np.asarray(tree.points))
    before = twin.adapter.pair_evaluations
    hits, evals = twin.knn(query, k, max_radius=radius)
    assert evals == twin.adapter.pair_evaluations - before
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


def check(tree, metric, queries, radii, ks):
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
