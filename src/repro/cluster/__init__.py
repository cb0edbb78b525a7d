"""Cluster substrate: SHA-1 hashing, storage nodes/groups, and the
two-tier zero-hop DHT topology."""

from repro.cluster.balance import (
    BalanceAuditor,
    BalanceReport,
    audit,
    coefficient_of_variation,
    gini,
)
from repro.cluster.group import StorageGroup
from repro.cluster.hashring import FlatHash, sha1_int
from repro.cluster.messages import (
    AnchorReport,
    GroupReport,
    Message,
    QueryResult,
    StoreBlocks,
    SubQuery,
    codes_nbytes,
)
from repro.cluster.node import (
    HP_DL160,
    SUNFIRE_X4100,
    NodeProfile,
    NodeStats,
    StorageNode,
)
from repro.cluster.topology import ClusterSpec, ClusterTopology, build_prefix_assignment

__all__ = [
    "BalanceAuditor",
    "BalanceReport",
    "audit",
    "coefficient_of_variation",
    "gini",
    "StorageGroup",
    "FlatHash",
    "sha1_int",
    "AnchorReport",
    "GroupReport",
    "Message",
    "QueryResult",
    "StoreBlocks",
    "SubQuery",
    "codes_nbytes",
    "HP_DL160",
    "SUNFIRE_X4100",
    "NodeProfile",
    "NodeStats",
    "StorageNode",
    "ClusterSpec",
    "ClusterTopology",
    "build_prefix_assignment",
]
