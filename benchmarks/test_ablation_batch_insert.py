"""Ablation — batch vs single-element vp-tree insertion (section III-D).

The paper found naive one-at-a-time insertion "quickly leads to an
unbalanced tree ... resulting in linear running times", and settled on large
batches plus the four-case rebalance.  This ablation builds the same local
index three ways and compares depth, insertion work, and search work:

* ``batch``        — one ``insert_batch`` (what Mendel ships);
* ``single``       — per-element insertion with the 4-case rebalance;
* ``no_rebalance`` — per-element insertion into a static-built tree grown
                     only by bucket appends (the pathological baseline,
                     emulated by a huge bucket capacity).
"""

import numpy as np
import pytest

from repro.bench.harness import format_table
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.dynamic import DynamicVPTree

N = 1200
SEGMENT = 8


@pytest.fixture(scope="module")
def sweep():
    points = np.random.default_rng(61).integers(0, 20, (N, SEGMENT)).astype(np.uint8)
    query = np.random.default_rng(62).integers(0, 20, SEGMENT).astype(np.uint8)
    rows = []

    def measure(name, build):
        tree = build()
        insert_evals = tree.adapter.pair_evaluations
        _, search_evals = tree.knn(query, 5)
        rows.append(
            {
                "strategy": name,
                "depth": tree.depth,
                "insert_evals": insert_evals,
                "search_evals": search_evals,
                "rebalances": tree.rebalance_count + tree.full_rebuild_count,
            }
        )
        return tree

    def batch():
        tree = DynamicVPTree(default_distance(PROTEIN), SEGMENT,
                             bucket_capacity=16, rng=1)
        tree.insert_batch(points)
        return tree

    def single():
        tree = DynamicVPTree(default_distance(PROTEIN), SEGMENT,
                             bucket_capacity=16, rng=2)
        for p in points:
            tree.insert(p)
        return tree

    def no_rebalance():
        # A degenerate "tree": bucket capacity >= n means every element lands
        # in one giant leaf — the unbalanced-structure stand-in whose search
        # is a full linear scan.
        tree = DynamicVPTree(default_distance(PROTEIN), SEGMENT,
                             bucket_capacity=N, rng=3)
        for p in points:
            tree.insert(p)
        return tree

    measure("batch", batch)
    measure("single", single)
    measure("no_rebalance", no_rebalance)
    return rows


def test_ablation_batch_insert_table(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(sweep, title="Ablation: vp-tree insertion strategy"))


def test_batch_is_cheapest_to_build(sweep, check):
    def body():
        by_name = {row["strategy"]: row for row in sweep}
        assert by_name["batch"]["insert_evals"] < by_name["single"]["insert_evals"]

    check(body)


def test_unbalanced_search_is_linear(sweep, check):
    def body():
        by_name = {row["strategy"]: row for row in sweep}
        # The degenerate structure scans everything; balanced trees with a
        # bounded search radius must do no worse.
        assert by_name["no_rebalance"]["search_evals"] >= N
        assert by_name["batch"]["search_evals"] <= by_name["no_rebalance"]["search_evals"]

    check(body)


def test_both_balanced_variants_stay_shallow(sweep, check):
    def body():
        import math

        by_name = {row["strategy"]: row for row in sweep}
        bound = 3 * (math.log2(N / 16) + 1)
        assert by_name["batch"]["depth"] <= bound
        assert by_name["single"]["depth"] <= bound

    check(body)
