"""Ablation — leaf bucket capacity (section III-D, optimisation 1).

"Adding large buckets to the leaves of the vp-tree ... vastly reduces the
total number of vertices."  This ablation sweeps the bucket capacity of the
local node trees and reports vertex counts, build work, and query work.
"""

import numpy as np
import pytest

from repro.bench.harness import format_table
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.dynamic import DynamicVPTree
from repro.vptree.tree import VPNode

N = 1500
CAPACITIES = (1, 8, 32, 128)


def count_vertices(node: VPNode | None) -> int:
    if node is None:
        return 0
    if node.is_leaf:
        return 1
    return 1 + count_vertices(node.left) + count_vertices(node.right)


@pytest.fixture(scope="module")
def sweep():
    points = np.random.default_rng(71).integers(0, 20, (N, 8)).astype(np.uint8)
    queries = np.random.default_rng(72).integers(0, 20, (10, 8)).astype(np.uint8)
    rows = []
    for capacity in CAPACITIES:
        tree = DynamicVPTree(
            default_distance(PROTEIN), 8, bucket_capacity=capacity, rng=5
        )
        tree.insert_batch(points)
        build_evals = tree.adapter.pair_evaluations
        search_evals = sum(evals for _, evals in tree.knn(queries, 5))
        rows.append(
            {
                "bucket_capacity": capacity,
                "vertices": count_vertices(tree.root),
                "depth": tree.depth,
                "build_evals": build_evals,
                "search_evals_per_query": search_evals / 10,
            }
        )
    return rows


def test_ablation_bucket_size_table(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(sweep, title="Ablation: leaf bucket capacity"))


def test_buckets_reduce_vertex_count(sweep, check):
    def body():
        vertices = [row["vertices"] for row in sweep]
        assert all(b < a for a, b in zip(vertices, vertices[1:]))
        # The paper's "vastly reduces": two orders of magnitude 1 -> 128.
        assert vertices[0] / vertices[-1] > 50

    check(body)


def test_buckets_reduce_build_work(sweep, check):
    def body():
        build = [row["build_evals"] for row in sweep]
        assert build[-1] < build[0]

    check(body)


def test_depth_shrinks_with_capacity(sweep, check):
    def body():
        depths = [row["depth"] for row in sweep]
        assert depths[-1] < depths[0]

    check(body)
