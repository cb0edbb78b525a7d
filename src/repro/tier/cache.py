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
(:func:`repro.vptree.search._fill`): every data page is looked up exactly
once per node-subquery, in file order, scored with the pages beside it
against all of the subquery's windows, and not referenced again until the
next subquery.  So a page is
reused only *across* passes, and nothing needs holding in place *within*
one: no page is pinned and none is fetched ahead of the pass.  Passes over
a node loop, which is LRU's worst case, so the pass — not this cache —
limits what it admits (:meth:`repro.tier.store.NodeTier.pages`): a cache
that holds the node's pages makes the next pass free, a smaller one keeps
a slowly turning subset resident instead of churning through all of them.

Gateway worker threads search the same nodes at once, so ``get``, ``put``
and ``drop_node`` hold one lock and the resident-byte total is kept as a
running sum.

All counters are labelled ``(node, tier)`` so a node drain purges its
series via ``MetricsRegistry.purge_labels`` (see the multi-label purge
semantics in :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.profile import charge as profile_charge

#: the ``tier`` label value for block-cache series
CACHE_TIER = "block_cache"


class BlockCache:
    """Shared byte-budget SLRU page cache."""

    def __init__(
        self, capacity_bytes: int, registry: MetricsRegistry | None = None
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        # (node_id, page_index) -> decoded page, least recently used first
        self._probation: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._protected: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._resident_bytes = 0
        registry = registry or default_registry()
        labelnames = ("node", "tier")
        self._c_hits = registry.counter(
            "repro_tier_cache_hits_total",
            "Block-cache page hits per node",
            labelnames,
        )
        self._c_misses = registry.counter(
            "repro_tier_cache_misses_total",
            "Block-cache page misses (cold reads) per node",
            labelnames,
        )
        self._c_evictions = registry.counter(
            "repro_tier_cache_evictions_total",
            "Pages evicted from the block cache per node",
            labelnames,
        )
        self._c_bypass = registry.counter(
            "repro_tier_cache_bypass_total",
            "Page reads that bypassed admission (page larger than the "
            "budget) per node",
            labelnames,
        )

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
        def total(family) -> float:
            return sum(
                child.value for _labels, child in family._items()
            )

        return {
            "capacity_bytes": self.capacity_bytes,
            "resident_bytes": self.resident_bytes,
            "resident_pages": self.resident_pages,
            "hits": total(self._c_hits),
            "misses": total(self._c_misses),
            "evictions": total(self._c_evictions),
            "bypasses": total(self._c_bypass),
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
            self._c_misses.labels(node=key[0], tier=CACHE_TIER).inc()
            profile_charge("tier", "tier/cache.py:BlockCache.get", cache_misses=1)
        else:
            self._c_hits.labels(node=key[0], tier=CACHE_TIER).inc()
            profile_charge("tier", "tier/cache.py:BlockCache.get", cache_hits=1)
        return rows

    def put(self, key: tuple[str, int], rows: np.ndarray) -> bool:
        """Admit a decoded page into probation; returns whether it is
        resident afterwards.  Pages larger than the whole budget are never
        admitted (a full-corpus scan cannot claim the cache)."""
        nbytes = int(rows.nbytes)
        if nbytes > self.capacity_bytes:
            self._c_bypass.labels(node=key[0], tier=CACHE_TIER).inc()
            return False
        evicted = []
        with self._lock:
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
                victim, gone = segment.popitem(last=False)
                self._resident_bytes -= gone.nbytes
                evicted.append(victim)
        for victim in evicted:
            self._c_evictions.labels(node=victim[0], tier=CACHE_TIER).inc()
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
