"""Extension benchmark — indexing cost and the persistence payoff.

Section VII-B: "indexing times for exceedingly large datasets can be
inhibitive.  Adding the ability to save pre-indexed data ... would save
researchers a lot of time."  This benchmark measures (a) how the simulated
indexing makespan scales with database size and cluster size, and (b) the
payoff of loading a saved deployment instead of rebuilding it: a load
hashes no block and models no more indexing time than the build (its wall
time is printed beside the build's).
"""

import time

import pytest

from repro.bench.harness import format_table, growth_ratio
from repro.bench.workloads import FamilySpec, generate_family_database
from repro.core import Mendel, MendelConfig, load_index, save_index

SIZES = (10, 20, 40)


@pytest.fixture(scope="module")
def size_sweep():
    rows = []
    for families in SIZES:
        db = generate_family_database(
            FamilySpec(families=families, members_per_family=4, length=200),
            rng=31,
        )
        mendel = Mendel.build(
            db, MendelConfig(group_count=4, group_size=3, seed=81)
        )
        rows.append(
            {
                "db_residues": db.total_residues,
                "blocks": mendel.block_count,
                "index_makespan_ms": 1e3 * mendel.stats.simulated_makespan,
            }
        )
    return rows


def test_indexing_scales_with_data(benchmark, size_sweep):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(size_sweep, title="Indexing makespan vs database size"))


def test_indexing_roughly_linear(size_sweep, check):
    def body():
        ratio = growth_ratio(
            [row["db_residues"] for row in size_sweep],
            [row["index_makespan_ms"] for row in size_sweep],
        )
        # Batch building is O(n log n) per node over n/N blocks: near-linear
        # overall, clearly not super-quadratic.
        assert 0.3 < ratio < 3.0

    check(body)


def test_more_nodes_index_faster(check):
    def body():
        db = generate_family_database(
            FamilySpec(families=30, members_per_family=4, length=200), rng=32
        )
        small = Mendel.build(db, MendelConfig(group_count=2, group_size=2, seed=9))
        large = Mendel.build(db, MendelConfig(group_count=8, group_size=4, seed=9))
        assert (
            large.stats.simulated_makespan < small.stats.simulated_makespan
        )

    check(body)


def test_persistence_pays_off(check, tmp_path_factory):
    def body():
        tmp = tmp_path_factory.mktemp("persist-bench")
        db = generate_family_database(
            FamilySpec(families=30, members_per_family=4, length=200), rng=33
        )
        config = MendelConfig(group_count=4, group_size=3, seed=83)

        t0 = time.perf_counter()
        mendel = Mendel.build(db, config)
        build_seconds = time.perf_counter() - t0

        path = tmp / "deploy.npz"
        save_index(mendel.index, path)

        t0 = time.perf_counter()
        loaded = load_index(path)
        load_seconds = time.perf_counter() - t0

        print(
            f"\nbuild {build_seconds:.2f}s vs load {load_seconds:.2f}s "
            f"({build_seconds / load_seconds:.1f}x faster) for "
            f"{mendel.block_count} blocks"
        )
        assert loaded.stats.per_node_blocks == mendel.stats.per_node_blocks
        # Loading skips the vp-prefix hashing of every block, so it models
        # no more indexing time than the build.  The wall times above are
        # printed, not compared: the hashing is one batched pass, a small
        # share of a build, and machine noise decides their order.
        assert loaded.stats.hash_evals == 0 < mendel.stats.hash_evals
        assert (loaded.stats.simulated_makespan
                <= mendel.stats.simulated_makespan)

    check(body)
