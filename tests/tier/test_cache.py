"""BlockCache: SLRU admission, scan resistance, accounting, threads."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.tier.cache import BlockCache


def page(fill=0, rows=4, width=8):
    return np.full((rows, width), fill, dtype=np.uint8)


PAGE_BYTES = page().nbytes  # 32


def make_cache(pages=2, **kwargs):
    return BlockCache(capacity_bytes=pages * PAGE_BYTES, **kwargs)


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.get(("n0", 0)) is None
        assert cache.put(("n0", 0), page(1))
        np.testing.assert_array_equal(cache.get(("n0", 0)), page(1))
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = make_cache(pages=2)
        cache.put(("n0", 0), page(0))
        cache.put(("n0", 1), page(1))
        cache.put(("n0", 2), page(2))  # evicts page 0 (probation LRU)
        assert not cache.contains(("n0", 0))
        assert cache.contains(("n0", 1))
        assert cache.contains(("n0", 2))
        assert cache.stats()["evictions"] == 1

    def test_resident_accounting(self):
        cache = make_cache(pages=3)
        cache.put(("n0", 0), page())
        cache.put(("n1", 0), page())
        assert cache.resident_bytes == 2 * PAGE_BYTES
        assert cache.resident_pages == 2
        assert cache.resident_bytes_for("n0") == PAGE_BYTES

    def test_oversized_page_is_never_admitted(self):
        cache = make_cache(pages=1)
        big = np.zeros((64, 64), dtype=np.uint8)
        assert not cache.put(("n0", 0), big)
        assert cache.resident_pages == 0
        assert cache.stats()["bypasses"] == 1


class TestScanResistance:
    def test_reused_page_survives_a_scan(self):
        cache = make_cache(pages=2)
        cache.put(("n0", 0), page(0))
        cache.get(("n0", 0))  # promote to protected
        for i in range(1, 10):  # one-pass scan churns probation only
            cache.put(("n0", i), page(i))
        assert cache.contains(("n0", 0))

    def test_probation_hit_promotes(self):
        cache = make_cache(pages=2)
        cache.put(("n0", 0), page(0))
        assert ("n0", 0) in cache._probation
        cache.get(("n0", 0))
        assert ("n0", 0) in cache._protected


class TestAdmission:
    def test_protected_is_raided_only_after_probation(self):
        cache = make_cache(pages=2)
        cache.put(("n0", 0), page(0))
        cache.put(("n0", 1), page(1))
        cache.get(("n0", 0))
        cache.get(("n0", 1))  # both protected, probation empty
        cache.put(("n0", 2), page(2))  # the incoming page is never its own victim
        assert cache.contains(("n0", 2))
        assert not cache.contains(("n0", 0))  # protected LRU went
        assert cache.resident_bytes == 2 * PAGE_BYTES

    def test_zero_budget_bypasses_every_page(self):
        cache = make_cache(pages=0)
        assert not cache.put(("n0", 0), page(0))
        assert cache.get(("n0", 0)) is None
        assert cache.stats()["bypasses"] == 1
        assert cache.resident_bytes == 0

    def test_second_put_of_a_resident_key_changes_nothing(self):
        cache = make_cache(pages=2)
        assert cache.put(("n0", 0), page(0))
        assert cache.put(("n0", 0), page(9))  # a racing reader's copy
        np.testing.assert_array_equal(cache.get(("n0", 0)), page(0))
        assert cache.resident_bytes == PAGE_BYTES


class TestThreads:
    def test_running_total_survives_concurrent_churn(self):
        """More workers than cores on a shortened switch interval: the
        running byte total equals a recount, the budget holds, and every
        lookup was counted as exactly one hit or one miss."""
        cache = make_cache(pages=5)
        lookups = 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def churn(worker):
            rng = np.random.default_rng(worker)
            for step in rng.integers(0, 12, lookups).tolist():
                key = (f"n{step % 3}", step)
                if cache.get(key) is None:
                    cache.put(key, page(step))
                if step == 11:
                    cache.drop_node("n2")

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(churn, w) for w in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        recount = sum(
            rows.nbytes
            for segment in (cache._probation, cache._protected)
            for rows in segment.values()
        )
        assert cache.resident_bytes == recount <= cache.capacity_bytes
        assert not set(cache._probation) & set(cache._protected)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * lookups


class TestDropNode:
    def test_drop_node_removes_only_that_node(self):
        cache = make_cache(pages=4)
        cache.put(("n0", 0), page())
        cache.put(("n0", 1), page())
        cache.put(("n1", 0), page())
        assert cache.drop_node("n0") == 2
        assert not cache.contains(("n0", 0))
        assert cache.contains(("n1", 0))


class TestCountsBelongToTheCache:
    def test_a_fresh_spill_starts_its_counts_at_zero(self):
        from repro.core import QueryParams
        from repro.scenario import build_deployment, planted_probes

        mendel = build_deployment(3, (40, 200), group_count=2, group_size=2)
        first = mendel.spill(cache_bytes=4000)
        probes, _expected = planted_probes(mendel, 2, rng=3)
        for probe in probes:
            mendel.query(probe, QueryParams())
        moved = first.stats()
        assert moved["misses"] > 0 and moved["evictions"] > 0
        second = mendel.spill(cache_bytes=4000)
        assert second is not first
        stats = second.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 0, 0)
        # The first cache's counts are its own too: the re-spill left them.
        assert first.stats()["misses"] == moved["misses"]
