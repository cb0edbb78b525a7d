"""Ablation — second-tier placement: flat SHA-1 vs a second vp-prefix tree.

Section V-A.2: "Employing a second-tier vp-prefix hashing tree at this
level proved to be ineffective" — similarity grouping *within* a group
creates hotspots and destroys intra-group parallelism, so Mendel uses flat
SHA-1 inside groups.  This ablation reproduces that comparison: blocks of
one group are placed by (a) SHA-1 and (b) a per-group vp-prefix hash, and
the per-node skew is compared.
"""

import numpy as np
import pytest

from repro.bench.harness import format_table
from repro.bench.workloads import FamilySpec, generate_family_database
from repro.cluster.hashring import FlatHash
from repro.core import MendelConfig, MendelIndex
from repro.seq.distance import default_distance
from repro.vptree.prefix import VPPrefixTree


@pytest.fixture(scope="module")
def comparison():
    db = generate_family_database(
        FamilySpec(families=20, members_per_family=4, length=150), rng=41
    )
    index = MendelIndex(
        db, MendelConfig(group_count=4, group_size=4, sample_size=512, seed=6)
    )
    store = index.store

    # Collect the blocks of the busiest group (where skew matters most).
    group_id, placed = max(
        index.blocks_of_group.items(), key=lambda kv: len(kv[1])
    )
    block_ids = sorted(placed)
    node_ids = [f"{group_id}.n{i}" for i in range(4)]

    # (a) flat SHA-1 within the group (what Mendel ships).
    flat = FlatHash(tuple(node_ids))
    flat_counts = {n: 0 for n in node_ids}
    for block_id in block_ids:
        flat_counts[flat.assign(store.block_key(block_id))] += 1

    # (b) a second vp-prefix tier: route each block down a per-group prefix
    # tree and assign frontier regions to nodes round-robin.
    codes = store.codes_matrix(block_ids)
    tier2 = VPPrefixTree(
        codes[: min(512, len(block_ids))],
        default_distance(db.alphabet),
        depth_threshold=2,
        rng=7,
    )
    frontier = tier2.all_prefixes()
    region_of = {p: node_ids[i % len(node_ids)] for i, p in enumerate(frontier)}
    lsh_counts = {n: 0 for n in node_ids}
    for row in codes:
        prefix = tier2.hash_one(row).prefix
        lsh_counts[region_of[prefix]] += 1

    total = len(block_ids)
    rows = [
        {
            "node": n,
            "flat_pct": 100.0 * flat_counts[n] / total,
            "vp_tier2_pct": 100.0 * lsh_counts[n] / total,
        }
        for n in node_ids
    ]
    return rows


def _spread(rows, key):
    values = [r[key] for r in rows]
    return max(values) - min(values)


def test_ablation_tier2_table(benchmark, comparison):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(comparison, title="Ablation: tier-2 placement within one group"))
    print(
        f"flat spread = {_spread(comparison, 'flat_pct'):.1f}% | "
        f"vp tier-2 spread = {_spread(comparison, 'vp_tier2_pct'):.1f}%"
    )


def test_flat_beats_similarity_placement_within_group(comparison, check):
    def body():
        # The paper's conclusion: a vp-prefix tier-2 creates hotspots.
        assert _spread(comparison, "flat_pct") < _spread(comparison, "vp_tier2_pct")

    check(body)


def test_flat_within_group_is_tight(comparison, check):
    def body():
        assert _spread(comparison, "flat_pct") < 8.0

    check(body)
