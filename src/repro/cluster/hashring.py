"""Flat SHA-1 hashing, Mendel's intra-group placement (section V-A.2).

Inside a storage group Mendel uses a "tried-and-true flat hashing scheme,
SHA-1" so load balance within a group is near perfect.  :class:`FlatHash`
implements exactly that (SHA-1 of the block bytes, modulo node count).
The Fig. 5 load-balance benchmark also uses it as the one-tier standard
DHT it compares against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def sha1_int(data: bytes) -> int:
    """SHA-1 digest of *data* as a 160-bit integer."""
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


@dataclass(frozen=True)
class FlatHash:
    """SHA-1 modulo-N placement over a fixed list of node ids."""

    node_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.node_ids:
            raise ValueError("FlatHash requires at least one node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("duplicate node ids")

    def assign(self, key: bytes) -> str:
        """Node id owning *key*."""
        return self.node_ids[sha1_int(key) % len(self.node_ids)]
