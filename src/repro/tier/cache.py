"""Bounded RAM page cache shared by every spilled node of a deployment.

A segmented LRU (SLRU) over decoded pages, keyed ``(node_id, page_index)``:

* **probation** holds pages seen once — cold reads land here, so a one-pass
  scan cycles through probation and *cannot* evict the re-referenced working
  set (the admission control the tier promises);
* **protected** holds pages re-referenced while resident — a probation hit
  promotes the page, a protected hit refreshes its recency.

Eviction walks probation LRU-first, then protected.

**Paper vs ours.**  The paper's nodes hold their blocks in RAM and have no
cache.  Ours serves a spilled node's search as one page-ordered pass
(:func:`repro.vptree.search._fill`) or, on the part path, one read of the
pages holding a named block: each page is looked up once per
node-subquery, and again only by the verified read of its candidates.  So
a page is reused only *across* passes, and nothing needs holding in place
*within* one: no page is pinned and none is fetched ahead of the pass.
Passes over a node loop, which is LRU's worst case, so the pass — not
this cache — limits what it admits (:meth:`repro.tier.store.NodeTier._read`):
a cache that holds the node's pages makes the next pass free, a smaller
one keeps a slowly turning subset resident instead of churning through
all of them.

Gateway worker threads search the same nodes at once, so ``get``, ``put``
and ``drop_node`` hold one lock, and the resident-byte total and the
hit / miss / eviction / bypass counts are running sums kept under it.  The
counts belong to this cache: a fresh cache starts them at zero.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs.profile import charge as profile_charge


class BlockCache:
    """Shared byte-budget SLRU page cache."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        # (node_id, page_index) -> decoded page, least recently used first
        self._probation: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._protected: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bypasses = 0

    # -- introspection ---------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_pages(self) -> int:
        return len(self._probation) + len(self._protected)

    def resident_bytes_for(self, node_id: str) -> int:
        with self._lock:
            return sum(
                rows.nbytes
                for segment in (self._probation, self._protected)
                for (owner, _), rows in segment.items()
                if owner == node_id
            )

    def contains(self, key: tuple[str, int]) -> bool:
        return key in self._probation or key in self._protected

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity_bytes": self.capacity_bytes,
                "resident_bytes": self._resident_bytes,
                "resident_pages": self.resident_pages,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "bypasses": self._bypasses,
            }

    # -- the cache protocol ----------------------------------------------------

    def get(self, key: tuple[str, int]) -> np.ndarray | None:
        """The decoded page for *key*, or ``None``.  A probation hit
        promotes to protected; a protected hit refreshes recency."""
        with self._lock:
            rows = self._protected.get(key)
            if rows is not None:
                self._protected.move_to_end(key)
            else:
                rows = self._probation.pop(key, None)
                if rows is not None:
                    self._protected[key] = rows
            if rows is None:
                self._misses += 1
            else:
                self._hits += 1
        if rows is None:
            profile_charge("tier", "tier/cache.py:BlockCache.get", cache_misses=1)
        else:
            profile_charge("tier", "tier/cache.py:BlockCache.get", cache_hits=1)
        return rows

    def put(self, key: tuple[str, int], rows: np.ndarray) -> bool:
        """Admit a decoded page into probation; returns whether it is
        resident afterwards.  Pages larger than the whole budget are never
        admitted (a full-corpus scan cannot claim the cache)."""
        nbytes = int(rows.nbytes)
        with self._lock:
            if nbytes > self.capacity_bytes:
                self._bypasses += 1
                return False
            if self.contains(key):  # another thread read it meanwhile
                return True
            self._probation[key] = rows
            self._resident_bytes += nbytes
            # The incoming page fits the budget on its own, so there is
            # always an older victim while the total is over it.
            while self._resident_bytes > self.capacity_bytes:
                segment = (
                    self._probation if len(self._probation) > 1 else self._protected
                )
                _, gone = segment.popitem(last=False)
                self._resident_bytes -= gone.nbytes
                self._evictions += 1
        return True

    def drop_node(self, node_id: str) -> int:
        """Drop every resident page of *node_id* (process death or tier
        teardown wipes that node's share of shared RAM); returns count."""
        dropped = 0
        with self._lock:
            for segment in (self._probation, self._protected):
                for key in [key for key in segment if key[0] == node_id]:
                    self._resident_bytes -= segment.pop(key).nbytes
                    dropped += 1
        return dropped
