"""Two-tiered cluster topology (sections IV-C and V-A.2).

Mendel's network overlay is a zero-hop DHT with hierarchical partitioning:

* **tier 1** — a cluster-wide :class:`~repro.vptree.prefix.VPPrefixTree`
  hashes each block to a *prefix*; a prefix -> group assignment table sends
  similar blocks to the same :class:`~repro.cluster.group.StorageGroup`;
* **tier 2** — flat SHA-1 spreads blocks over the nodes inside the group.

The assignment table is built by enumerating the prefix-tree frontier
*in order* (adjacent frontier vertices are adjacent metric regions) and
cutting it into ``group_count`` contiguous runs of roughly equal sample
mass.  This keeps similar prefixes together (locality) while bounding
group-level skew — the behaviour evaluated in Fig. 5.

Every node knows the full table (zero-hop routing: requests go straight to
their destination with no overlay hops, as in Dynamo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.cluster.group import StorageGroup
from repro.cluster.node import HP_DL160, SUNFIRE_X4100, NodeProfile, StorageNode
from repro.util.rng import RandomSource, as_generator
from repro.vptree.prefix import VPPrefixTree


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster.

    ``group_count * group_size`` nodes total; ``heterogeneous=True`` mirrors
    the paper's testbed by assigning alternating hardware classes.
    """

    group_count: int = 10
    group_size: int = 5
    heterogeneous: bool = True
    bucket_capacity: int = 32
    ring_placement: bool = False

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError(f"group_count must be >= 1, got {self.group_count}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.bucket_capacity < 1:
            raise ValueError(
                f"bucket_capacity must be >= 1, got {self.bucket_capacity}"
            )

    @property
    def node_count(self) -> int:
        return self.group_count * self.group_size


def build_prefix_assignment(
    prefix_tree: VPPrefixTree,
    sample: np.ndarray,
    group_ids: Sequence[str],
) -> dict[int, str]:
    """Cut the prefix frontier into contiguous runs of ~equal sample mass.

    Parameters
    ----------
    prefix_tree:
        The shared tier-1 LSH.
    sample:
        Representative block matrix used to estimate per-prefix mass.
    group_ids:
        Target groups, in order.

    Returns the prefix -> group id table.
    """
    group_ids = list(group_ids)
    if not group_ids:
        raise ValueError("need at least one group id")
    frontier = prefix_tree.all_prefixes()
    if len(frontier) < len(group_ids):
        # Fewer similarity regions than groups: cycle groups so every prefix
        # is owned; surplus groups receive no tier-1 region (they still store
        # nothing, which the caller may flag).
        return {p: group_ids[i % len(group_ids)] for i, p in enumerate(frontier)}

    counts = {prefix: 0 for prefix in frontier}
    for prefix in prefix_tree.hash_many(sample)[0].tolist():
        counts[prefix] += 1
    total = max(1, sum(counts.values()))
    target = total / len(group_ids)

    assignment: dict[int, str] = {}
    group_index = 0
    mass = 0
    remaining_prefixes = len(frontier)
    for position, prefix in enumerate(frontier):
        assignment[prefix] = group_ids[group_index]
        mass += counts[prefix]
        remaining_prefixes -= 1
        remaining_groups = len(group_ids) - group_index - 1
        # Advance to the next group once this one has its share — but never
        # leave more groups than prefixes behind.
        if (
            group_index < len(group_ids) - 1
            and mass >= target
            and remaining_prefixes >= remaining_groups
        ):
            group_index += 1
            mass = 0
    return assignment


class Route(NamedTuple):
    """One query segment's tier-1 routing decision, made once by
    :meth:`ClusterTopology.route` and carried forward as a value."""

    #: vp-prefixes the tolerance traversal reached, in traversal order
    prefixes: tuple[int, ...]
    #: distinct groups owning those prefixes, in first-reached order
    groups: tuple[StorageGroup, ...]
    #: prefix-tree distance evaluations the traversal made
    evals: int


class ClusterTopology:
    """The full two-tier cluster: groups, nodes, and the routing tables."""

    def __init__(
        self,
        spec: ClusterSpec,
        prefix_tree: VPPrefixTree,
        sample: np.ndarray,
        metric_factory: Callable[[], Callable],
        segment_length: int,
        rng: RandomSource = None,
    ) -> None:
        self.spec = spec
        self.prefix_tree = prefix_tree
        gen = as_generator(rng)

        self.groups: list[StorageGroup] = []
        profiles = [HP_DL160, SUNFIRE_X4100]
        node_counter = 0
        for g in range(spec.group_count):
            group_id = f"g{g:02d}"
            nodes = []
            for n in range(spec.group_size):
                profile: NodeProfile = (
                    profiles[node_counter % 2] if spec.heterogeneous else HP_DL160
                )
                nodes.append(
                    StorageNode(
                        node_id=f"{group_id}.n{n}",
                        group_id=group_id,
                        metric_factory=metric_factory,
                        segment_length=segment_length,
                        profile=profile,
                        bucket_capacity=spec.bucket_capacity,
                        rng_seed=int(gen.integers(0, 2**31 - 1)),
                    )
                )
                node_counter += 1
            self.groups.append(
                StorageGroup(group_id=group_id, nodes=nodes,
                             use_ring=spec.ring_placement)
            )

        self._groups_by_id = {group.group_id: group for group in self.groups}
        self.prefix_assignment = build_prefix_assignment(
            prefix_tree, sample, [group.group_id for group in self.groups]
        )
        self._sorted_prefixes = sorted(self.prefix_assignment)

    # -- lookup ------------------------------------------------------------------

    def group(self, group_id: str) -> StorageGroup:
        return self._groups_by_id[group_id]

    @property
    def nodes(self) -> list[StorageNode]:
        return [node for group in self.groups for node in group.nodes]

    def group_for_prefix(self, prefix: int) -> StorageGroup:
        """Group owning *prefix*; unseen prefixes (possible only if the
        prefix tree is rebuilt) fall back to the nearest known prefix."""
        group_id = self.prefix_assignment.get(prefix)
        if group_id is None:
            nearest = min(self._sorted_prefixes, key=lambda p: abs(p - prefix))
            group_id = self.prefix_assignment[nearest]
        return self._groups_by_id[group_id]

    def prefixes_of(self, group_id: str) -> list[int]:
        """The prefixes assigned to *group_id*, in frontier (in-order)
        order — adjacent entries are adjacent metric regions, so a split
        that cuts this list stays contiguous."""
        if group_id not in self._groups_by_id:
            raise KeyError(f"no group {group_id!r}")
        return [
            prefix
            for prefix in self.prefix_tree.all_prefixes()
            if self.prefix_assignment.get(prefix) == group_id
        ]

    # -- elastic topology mutation -------------------------------------------

    def next_group_id(self) -> str:
        """The next unused ``gNN`` id (new groups from autoscaler splits)."""
        highest = max(int(g.group_id[1:]) for g in self.groups)
        return f"g{highest + 1:02d}"

    def add_group(self, group: StorageGroup) -> None:
        """Register a new (already built) group; it owns no prefixes until
        :meth:`reassign_prefixes` routes some to it."""
        if group.group_id in self._groups_by_id:
            raise ValueError(f"duplicate group id {group.group_id!r}")
        self.groups.append(group)
        self._groups_by_id[group.group_id] = group

    def remove_group(self, group_id: str) -> StorageGroup:
        """Drop a group from the topology.  Its prefixes must have been
        reassigned first (a prefix without an owner would break routing)."""
        group = self._groups_by_id.get(group_id)
        if group is None:
            raise KeyError(f"no group {group_id!r}")
        owned = [p for p, g in self.prefix_assignment.items() if g == group_id]
        if owned:
            raise ValueError(
                f"group {group_id!r} still owns prefixes {sorted(owned)}; "
                "reassign them before removal"
            )
        if len(self.groups) == 1:
            raise ValueError("cannot remove the last group")
        self.groups.remove(group)
        del self._groups_by_id[group_id]
        return group

    def reassign_prefixes(self, prefixes: Sequence[int], group_id: str) -> None:
        """Atomically route *prefixes* to *group_id* (the split/merge routing
        update).  New queries consult the updated table immediately; the
        caller moves the blocks."""
        if group_id not in self._groups_by_id:
            raise KeyError(f"no group {group_id!r}")
        for prefix in prefixes:
            self.prefix_assignment[prefix] = group_id
        self._sorted_prefixes = sorted(self.prefix_assignment)

    def retire_prefix(self, prefix: int, replacements: Sequence[int],
                      group_id: str) -> None:
        """Replace a refined *prefix* with its children in the routing table
        (both initially owned by *group_id*).  Pairs with
        :meth:`~repro.vptree.prefix.VPPrefixTree.refine`."""
        if group_id not in self._groups_by_id:
            raise KeyError(f"no group {group_id!r}")
        self.prefix_assignment.pop(prefix, None)
        for child in replacements:
            self.prefix_assignment[child] = group_id
        self._sorted_prefixes = sorted(self.prefix_assignment)

    # -- placement -----------------------------------------------------------------

    def place_block(self, codes: np.ndarray, block_key: bytes) -> StorageNode:
        """Tier-1 then tier-2 placement of one block."""
        prefix = self.prefix_tree.hash_one(np.asarray(codes, dtype=np.uint8)).prefix
        group = self.group_for_prefix(prefix)
        return group.place(block_key)

    def route(self, codes: np.ndarray, tolerance: float) -> Route:
        """Tier-1 routing of one query segment (prefix-tree traversal with
        branching tolerance; section V-B): the groups that may hold its
        neighbours and what finding them cost."""
        hashes, evals = self.prefix_tree.hash_query(
            np.asarray(codes, dtype=np.uint8), tolerance
        )
        groups: dict[str, StorageGroup] = {}
        for item in hashes:
            group = self.group_for_prefix(item.prefix)
            groups.setdefault(group.group_id, group)
        return Route(
            tuple(item.prefix for item in hashes), tuple(groups.values()), evals
        )

    # -- statistics -------------------------------------------------------------------

    def load_fractions(self) -> dict[str, float]:
        """Fraction of all stored blocks held by each node (Fig. 5 metric)."""
        total = sum(node.block_count for node in self.nodes)
        if total == 0:
            return {node.node_id: 0.0 for node in self.nodes}
        return {node.node_id: node.block_count / total for node in self.nodes}
