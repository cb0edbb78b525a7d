"""Tests for repro.cluster.topology."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec, ClusterTopology, build_prefix_assignment
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import default_distance
from repro.vptree.prefix import VPPrefixTree


@pytest.fixture(scope="module")
def sample():
    return np.random.default_rng(1).integers(0, 20, (600, 8)).astype(np.uint8)


@pytest.fixture(scope="module")
def prefix_tree(sample):
    return VPPrefixTree(sample[:300], default_distance(PROTEIN), depth_threshold=5, rng=2)


@pytest.fixture(scope="module")
def topology(sample, prefix_tree):
    return ClusterTopology(
        spec=ClusterSpec(group_count=4, group_size=3),
        prefix_tree=prefix_tree,
        sample=sample,
        metric_factory=lambda: default_distance(PROTEIN),
        segment_length=8,
        rng=3,
    )


class TestClusterSpec:
    def test_node_count(self):
        assert ClusterSpec(group_count=10, group_size=5).node_count == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(group_count=0)
        with pytest.raises(ValueError):
            ClusterSpec(group_size=0)
        with pytest.raises(ValueError):
            ClusterSpec(bucket_capacity=0)


class TestBuildPrefixAssignment:
    def test_covers_entire_frontier(self, prefix_tree, sample):
        assignment = build_prefix_assignment(prefix_tree, sample, ["g0", "g1", "g2"])
        assert set(assignment) == set(prefix_tree.all_prefixes())

    def test_contiguous_runs(self, prefix_tree, sample):
        # In-order frontier must map to groups in contiguous runs (locality).
        groups = ["g0", "g1", "g2"]
        assignment = build_prefix_assignment(prefix_tree, sample, groups)
        sequence = [assignment[p] for p in prefix_tree.all_prefixes()]
        # Once a group changes it never reappears.
        seen = []
        for g in sequence:
            if not seen or seen[-1] != g:
                seen.append(g)
        assert len(seen) == len(set(seen))

    def test_all_groups_used_when_enough_prefixes(self, prefix_tree, sample):
        groups = ["g0", "g1", "g2"]
        assignment = build_prefix_assignment(prefix_tree, sample, groups)
        assert set(assignment.values()) == set(groups)

    def test_more_groups_than_prefixes_cycles(self, sample):
        tiny = VPPrefixTree(
            sample[:16], default_distance(PROTEIN), depth_threshold=1, rng=4
        )
        groups = [f"g{i}" for i in range(10)]
        assignment = build_prefix_assignment(tiny, sample[:50], groups)
        assert set(assignment) == set(tiny.all_prefixes())

    def test_empty_groups_rejected(self, prefix_tree, sample):
        with pytest.raises(ValueError, match="at least one group"):
            build_prefix_assignment(prefix_tree, sample, [])

    def test_mass_balance(self, prefix_tree, sample):
        # No group should own an overwhelming share of the sample mass.
        groups = ["g0", "g1", "g2", "g3"]
        assignment = build_prefix_assignment(prefix_tree, sample, groups)
        mass = {g: 0 for g in groups}
        for row in sample:
            mass[assignment[prefix_tree.hash_one(row).prefix]] += 1
        shares = sorted(m / sample.shape[0] for m in mass.values())
        assert shares[-1] < 0.6


class TestClusterTopology:
    def test_shape(self, topology):
        assert len(topology.groups) == 4
        assert len(topology.nodes) == 12
        assert all(len(g) == 3 for g in topology.groups)

    def test_heterogeneous_profiles(self, topology):
        profiles = {n.profile.name for n in topology.nodes}
        assert profiles == {"hp-dl160", "sunfire-x4100"}

    def test_homogeneous_option(self, sample, prefix_tree):
        topo = ClusterTopology(
            spec=ClusterSpec(group_count=2, group_size=2, heterogeneous=False),
            prefix_tree=prefix_tree,
            sample=sample,
            metric_factory=lambda: default_distance(PROTEIN),
            segment_length=8,
            rng=5,
        )
        assert {n.profile.name for n in topo.nodes} == {"hp-dl160"}

    def test_group_lookup(self, topology):
        assert topology.group("g01").group_id == "g01"

    def test_place_block_deterministic(self, topology, sample):
        a = topology.place_block(sample[0], b"k0")
        b = topology.place_block(sample[0], b"k0")
        assert a.node_id == b.node_id

    def test_group_for_prefix_fallback(self, topology):
        # An unknown prefix resolves to the nearest known one, never raises.
        group = topology.group_for_prefix(999_999_999)
        assert group in topology.groups

    def test_groups_for_query_nonempty(self, topology, sample):
        route = topology.route(sample[10], tolerance=0.0)
        assert len(route.groups) == len(route.prefixes) == 1
        # A single-path walk evaluates one vertex per level it descends.
        assert route.evals == topology.prefix_tree.hash_one(sample[10]).depth

    def test_groups_for_query_tolerance_grows(self, topology, sample):
        small = topology.route(sample[10], tolerance=0.0)
        large = topology.route(sample[10], tolerance=1e9)
        assert len(large.groups) >= len(small.groups)
        assert large.evals > small.evals
        # A walk that branches everywhere reaches every group; it stops
        # where one group owns the subtree, so its stop prefixes cover the
        # frontier rather than list it.
        assert {g.group_id for g in large.groups} == {
            g.group_id for g in topology.groups
        }
        for prefix in topology.prefix_tree.all_prefixes():
            assert any(
                prefix >> (prefix.bit_length() - stop.bit_length()) == stop
                for stop in large.prefixes
                if stop.bit_length() <= prefix.bit_length()
            ), f"frontier prefix {prefix} is under no stop prefix"

    def test_load_fractions_sum_to_one(self, topology, sample):
        for i, row in enumerate(sample[:100]):
            node = topology.place_block(row, str(i).encode())
            node.store_blocks(row[None, :], [i])
        fractions = topology.load_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_load_fractions_empty(self, sample, prefix_tree):
        topo = ClusterTopology(
            spec=ClusterSpec(group_count=2, group_size=2),
            prefix_tree=prefix_tree,
            sample=sample,
            metric_factory=lambda: default_distance(PROTEIN),
            segment_length=8,
            rng=6,
        )
        assert all(v == 0.0 for v in topo.load_fractions().values())
