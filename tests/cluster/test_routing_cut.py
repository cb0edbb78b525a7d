"""Group-decided tier-1 routing against the full-frontier walk.

:meth:`ClusterTopology.route` ends each prefix-tree walk at the shallowest
vertex whose frontier prefixes one group owns.  Its oracle is
``hash_query`` with an empty stop set: the paper's walk to the cutoff
depth, each reached frontier prefix mapped through the assignment table.
The decided walk must reach the same groups in the same first-reached
order, never evaluate more vertices, and stop only at frontier prefixes or
at ancestors one group owns — on a fresh topology and after every routing
table mutation (split by refinement, prefix moves, group add and removal,
and a refinement made on the tree alone).  Hypothesis draws the topology,
the windows and the mutations, seeded from ``CHAOS_SEED``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.cluster.group import StorageGroup
from repro.cluster.node import StorageNode
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.core.params import QueryParams
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.prefix import VPPrefixTree

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

WIDTH = 8

ALPHABETS = {"protein": PROTEIN, "dna": DNA}


def engine_default_tolerance(metric) -> float:
    """``QueryEngine.tolerance`` with default params: half the search
    radius, ``(1 - i) * w`` mismatches at the metric's largest step."""
    mismatches = int((1.0 - QueryParams().i) * WIDTH)
    matrix = getattr(metric, "matrix", None)
    step = 1.0 if matrix is None else float(np.asarray(matrix).max())
    return 0.5 * mismatches * step


def build(alphabet, groups: int, rng: int) -> tuple[ClusterTopology, np.ndarray]:
    gen = np.random.default_rng(rng)
    sample = gen.integers(0, alphabet.canonical_size, (240, WIDTH)).astype(np.uint8)
    metric = default_distance(alphabet)
    tree = VPPrefixTree(sample[:160], metric, depth_threshold=4,
                        bucket_capacity=4, rng=rng)
    topology = ClusterTopology(
        spec=ClusterSpec(group_count=groups, group_size=1),
        prefix_tree=tree,
        sample=sample,
        metric_factory=lambda: default_distance(alphabet),
        segment_length=WIDTH,
        rng=rng,
    )
    return topology, sample


def below(frontier: list[int], prefix: int) -> list[int]:
    """The frontier prefixes at or under the vertex carrying *prefix*."""
    bits = prefix.bit_length()
    return [
        f for f in frontier
        if f.bit_length() >= bits and f >> (f.bit_length() - bits) == prefix
    ]


def assert_decided(topology: ClusterTopology, rows, tolerances) -> None:
    tree = topology.prefix_tree
    frontier = tree.all_prefixes()
    for row in rows:
        for tolerance in tolerances:
            route = topology.route(row, tolerance)
            full, full_evals = tree.hash_query(row, tolerance)
            expected: list[str] = []
            for item in full:
                owner = topology.group_for_prefix(item.prefix).group_id
                if owner not in expected:
                    expected.append(owner)
            assert [g.group_id for g in route.groups] == expected
            assert route.evals <= full_evals
            for prefix in route.prefixes:
                owners = {
                    topology.group_for_prefix(f).group_id
                    for f in below(frontier, prefix)
                }
                assert len(owners) == 1, (prefix, owners)
            for item in full:
                assert any(
                    below([item.prefix], stop) for stop in route.prefixes
                ), f"frontier prefix {item.prefix} is under no stop vertex"


def split(topology: ClusterTopology, pick: int) -> None:
    """``MendelIndex.split_group``'s routing steps: refine a single-prefix
    group, then move the upper half of its run to a new group."""
    group = topology.groups[pick % len(topology.groups)]
    owned = topology.prefixes_of(group.group_id)
    if len(owned) == 1:
        try:
            children = topology.prefix_tree.refine(owned[0])
        except ValueError:  # a leaf bucket has no deeper structure
            return
        topology.retire_prefix(owned[0], children, group.group_id)
        owned = topology.prefixes_of(group.group_id)
    if len(owned) < 2:
        return
    new_id = topology.next_group_id()
    metric = topology.prefix_tree._tree.adapter.metric
    node = StorageNode(node_id=f"{new_id}.n0", group_id=new_id,
                       metric_factory=lambda: metric, segment_length=WIDTH)
    topology.add_group(StorageGroup(group_id=new_id, nodes=[node]))
    topology.reassign_prefixes(owned[len(owned) // 2:], new_id)


def merge(topology: ClusterTopology, pick: int) -> None:
    if len(topology.groups) < 2:
        return
    source = topology.groups[pick % len(topology.groups)].group_id
    target = next(g.group_id for g in topology.groups if g.group_id != source)
    topology.reassign_prefixes(topology.prefixes_of(source), target)
    topology.remove_group(source)


def move(topology: ClusterTopology, pick: int) -> None:
    frontier = sorted(topology.prefix_assignment)
    prefix = frontier[pick % len(frontier)]
    target = topology.groups[(pick // 7) % len(topology.groups)].group_id
    topology.reassign_prefixes([prefix], target)


def refine_tree_only(topology: ClusterTopology, pick: int) -> None:
    """A refinement the topology is not told about: the children route
    through ``group_for_prefix``'s nearest-prefix fallback."""
    frontier = topology.prefix_tree.all_prefixes()
    try:
        topology.prefix_tree.refine(frontier[pick % len(frontier)])
    except ValueError:
        pass


MUTATIONS = {
    "split": split, "merge": merge, "move": move,
    "refine_tree_only": refine_tree_only,
}


@seed(SEED)
@settings(max_examples=25, deadline=None)
# A tree-only refine leaves the refined prefix in the assignment table but
# off the frontier; removing its group must still succeed.
@example(alphabet="dna", groups=1, rng=0, small=0.0,
         steps=[("split", 0), ("refine_tree_only", 8), ("merge", 1)])
@given(
    alphabet=st.sampled_from(sorted(ALPHABETS)),
    groups=st.integers(1, 6),
    rng=st.integers(0, 2**16),
    small=st.floats(0.0, 6.0),
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 1000)),
        max_size=6,
    ),
)
def test_decided_walk_matches_full_walk(alphabet, groups, rng, small, steps):
    topology, sample = build(ALPHABETS[alphabet], groups, rng)
    metric = topology.prefix_tree._tree.adapter.metric
    tolerances = (0.0, small, engine_default_tolerance(metric), 1e9)
    windows = np.random.default_rng(rng + 1).integers(
        0, ALPHABETS[alphabet].canonical_size, (6, WIDTH)
    ).astype(np.uint8)
    rows = np.concatenate([sample[:6], windows])
    assert_decided(topology, rows, tolerances)
    for name, pick in steps:
        MUTATIONS[name](topology, pick)
        assert_decided(topology, rows, tolerances)


def test_the_cut_saves_evaluations():
    """With fewer groups than frontier prefixes some internal vertex has one
    owner, so a walk that reaches everything evaluates fewer vertices."""
    topology, sample = build(PROTEIN, 2, SEED)
    full, full_evals = topology.prefix_tree.hash_query(sample[0], 1e9)
    route = topology.route(sample[0], 1e9)
    assert len(route.groups) == 2
    assert route.evals < full_evals
    assert len(route.prefixes) < len(full)
