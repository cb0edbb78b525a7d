"""Storage groups: tier-2 of Mendel's hierarchical partitioning.

A group is a set of storage nodes that collectively hold one similarity
region of the key space (all blocks whose vp-prefix hash maps to the group).
Within the group, blocks are spread by flat SHA-1 (:class:`FlatHash`) so
that intra-group load is near uniform and every node is a useful worker for
any query routed to the group — the paper's argument for *not* using a
second vp-prefix tier (section V-A.2, ablated in
``benchmarks/test_ablation_tier2.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hashring import FlatHash, HashRing
from repro.cluster.node import StorageNode
from repro.obs.metrics import default_registry


@dataclass
class StorageGroup:
    """A named set of nodes plus the intra-group placement hash.

    ``use_ring=True`` swaps the flat ``SHA-1 mod N`` placement for a
    consistent-hashing ring, so membership changes (the autoscaler's
    scale-out/scale-in) move only ~``1/N`` of the group's blocks instead
    of reshuffling almost all of them.  The default stays flat — the
    paper's evaluated configuration.
    """

    group_id: str
    nodes: list[StorageNode]
    use_ring: bool = False
    _flat: FlatHash | HashRing = field(init=False, repr=False)
    _by_id: dict[str, StorageNode] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError(f"group {self.group_id!r} must have at least one node")
        ids = tuple(node.node_id for node in self.nodes)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in group {self.group_id!r}")
        for node in self.nodes:
            if node.group_id != self.group_id:
                raise ValueError(
                    f"node {node.node_id!r} belongs to group {node.group_id!r}, "
                    f"not {self.group_id!r}"
                )
        self._flat = self._make_placer(ids)
        self._by_id = {node.node_id: node for node in self.nodes}
        registry = default_registry()
        self._m_elections = registry.counter(
            "repro_coordinator_elections_total",
            "Query-coordinator selections performed by storage groups",
            ("group",),
        ).labels(group=self.group_id)
        self._m_failovers = registry.counter(
            "repro_coordinator_failovers_total",
            "Coordinator selections that skipped a dead first-choice node",
            ("group",),
        ).labels(group=self.group_id)

    def _make_placer(self, ids: tuple[str, ...]) -> FlatHash | HashRing:
        return HashRing(ids) if self.use_ring else FlatHash(ids)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, node_id: str) -> StorageNode:
        return self._by_id[node_id]

    def add_node(self, node: StorageNode) -> None:
        """Grow the group by one member (elastic scale-out).

        Rebuilds the intra-group flat hash; the caller is responsible for
        redistributing blocks afterwards (see ``MendelIndex.add_node``).
        """
        if node.group_id != self.group_id:
            raise ValueError(
                f"node {node.node_id!r} belongs to group {node.group_id!r}, "
                f"not {self.group_id!r}"
            )
        if node.node_id in self._by_id:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes.append(node)
        self._flat = self._make_placer(tuple(n.node_id for n in self.nodes))
        self._by_id[node.node_id] = node

    def remove_node(self, node_id: str) -> StorageNode:
        """Shrink the group by one member (elastic scale-in).

        Rebuilds the intra-group placement hash; the caller is responsible
        for draining the node's blocks to the survivors *first* (see
        ``MendelIndex.remove_node`` for the safe-drain orchestration).
        Removing the last member is refused — a group with assigned prefixes
        must stay addressable.
        """
        if node_id not in self._by_id:
            raise KeyError(f"no node {node_id!r} in group {self.group_id!r}")
        if len(self.nodes) == 1:
            raise ValueError(
                f"cannot remove the last node of group {self.group_id!r}"
            )
        node = self._by_id.pop(node_id)
        self.nodes.remove(node)
        self._flat = self._make_placer(tuple(n.node_id for n in self.nodes))
        return node

    def place(self, key: bytes) -> StorageNode:
        """Primary node for the block identified by *key* (flat SHA-1)."""
        return self._by_id[self._flat.assign(key)]

    def preference_list(self, key: bytes) -> list[StorageNode]:
        """All group nodes in replica-preference order for *key*: the flat
        primary first, then successors in group order (Dynamo's preference
        list restricted to the group).  Placement under failures walks this
        list skipping dead nodes, so any placement decision is recoverable
        from group membership plus the alive set."""
        primary = self.place(key)
        start = self.nodes.index(primary)
        return [self.nodes[(start + i) % len(self.nodes)] for i in range(len(self.nodes))]

    def place_replicas(self, key: bytes, count: int) -> list[StorageNode]:
        """Primary plus ``count - 1`` successor nodes for *key* (canonical
        placement, ignoring liveness)."""
        if not 1 <= count <= len(self.nodes):
            raise ValueError(
                f"replication count must be in 1..{len(self.nodes)}, got {count}"
            )
        return self.preference_list(key)[:count]

    def place_replicas_alive(
        self, key: bytes, count: int, is_alive=None
    ) -> list[StorageNode]:
        """The first ``count`` *alive* nodes in preference order for *key*
        (fewer if the group has fewer alive members).  *is_alive* overrides
        the liveness predicate — the failure detector passes its own view,
        which may disagree with ground truth."""
        if count < 1:
            raise ValueError(f"replication count must be >= 1, got {count}")
        is_alive = is_alive or (lambda node: node.alive)
        chosen = [node for node in self.preference_list(key) if is_alive(node)]
        return chosen[:count]

    @property
    def block_count(self) -> int:
        return sum(node.block_count for node in self.nodes)

    def entry_point(self) -> StorageNode:
        """The group's query coordinator.

        Mendel is symmetric — any node can coordinate; we use the first
        *alive* node deterministically so simulations replay identically and
        coordination survives node failures.
        """
        self._m_elections.inc()
        for position, node in enumerate(self.nodes):
            if node.alive:
                if position:
                    self._m_failovers.inc()
                return node
        self._m_failovers.inc()
        return self.nodes[0]  # all dead: routing still needs an address
