"""QueryService: correctness vs. the facade, caching, coherence, shedding,
deadlines, structured failure modes."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import wait

import pytest

from repro import Mendel, MendelConfig, QueryParams
from repro.seq import PROTEIN, random_set
from repro.serve.errors import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServiceClosed,
)


def alignment_keys(report):
    return [
        (a.subject_id, a.query_start, a.query_end, round(a.score, 6))
        for a in report.alignments
    ]


class TestResults:
    def test_matches_direct_query(self, service, mendel, probe_texts,
                                  serve_params):
        direct = mendel.query_text(probe_texts[0], serve_params, "q0")
        served = service.query_text(probe_texts[0], serve_params, "q0")
        assert not served.cached
        assert alignment_keys(served.report) == alignment_keys(direct)
        assert served.report.query_id == "q0"

    @pytest.mark.chaos
    def test_concurrent_submits_all_resolve(self, service, mendel,
                                            probe_texts):
        """Twelve cold requests queued together, an EXPLAIN ahead of them:
        each served report carries the figures the same query reads when
        run directly and alone."""
        # Six with one params object each, six sharing one: every request
        # is its own engine call, same params or not.  No other test in this module uses these params, so each
        # request is cold.
        shared = QueryParams(k=4, n=5, i=0.65, c=0.4, E=9.0)
        requests = [
            (text, QueryParams(k=4, n=5, i=0.65, c=0.4, E=10.0 + i), f"q{i}")
            for i, text in enumerate(probe_texts)
        ] + [(text, shared, f"s{i}") for i, text in enumerate(probe_texts)]
        direct = [mendel.query_text(*request).stats for request in requests]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            explained = service.submit_explain(*requests[0])
            futures = [service.submit_text(*request) for request in requests]
            done, pending = wait(futures + [explained], timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not pending
        served = [future.result() for future in futures]
        assert not any(result.cached for result in served)
        assert [result.report.stats for result in served] == direct
        assert explained.result().report.stats == direct[0]

    def test_engine_calls_take_turns(self, mendel, monkeypatch, probe_texts,
                                     serve_params):
        """Six requests submitted together: never two engine calls at once."""
        guard = threading.Lock()
        running = [0]
        peak = [0]
        query_many = mendel.query_many

        def tracked(records, params=None, trace_contexts=None):
            with guard:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.01)
                return query_many(records, params,
                                  trace_contexts=trace_contexts)
            finally:
                with guard:
                    running[0] -= 1

        monkeypatch.setattr(mendel, "query_many", tracked)
        with mendel.service(cache_capacity=0) as service:
            futures = [
                service.submit_text(text, serve_params, f"t{i}")
                for i, text in enumerate(probe_texts)
            ]
            for future in futures:
                assert future.result(timeout=60).report is not None
        assert peak[0] == 1


class TestCaching:
    def test_repeat_query_hits_cache(self, service, probe_texts):
        # Params distinct from every other test in this module, so the
        # first request is guaranteed cold on the shared service.
        params = QueryParams(k=4, n=5, i=0.6, c=0.4)
        first = service.query_text(probe_texts[1], params, "warm")
        again = service.query_text(probe_texts[1], params, "warm2")
        assert not first.cached
        assert again.cached
        assert again.report.query_id == "warm2"
        assert alignment_keys(again.report) == alignment_keys(first.report)
        assert service.cache.stats.hits >= 1

    def test_insert_invalidates_cache(self):
        db = random_set(count=12, length=120, alphabet=PROTEIN, rng=5,
                        id_prefix="inv")
        mendel = Mendel.build(
            db, MendelConfig(group_count=2, group_size=2, sample_size=64,
                             seed=3)
        )
        extra = random_set(count=2, length=120, alphabet=PROTEIN, rng=6,
                           id_prefix="new")
        with mendel.service() as service:
            text = db.records[0].text[:50]
            service.query_text(text)
            assert service.query_text(text).cached
            version_before = mendel.index_version
            mendel.insert(extra)
            assert mendel.index_version == version_before + 1
            # Same search again: the stale entry must not be served.
            result = service.query_text(text)
            assert not result.cached
            assert service.cache.stats.invalidations == 1

    def test_cache_disabled(self, mendel, probe_texts, serve_params):
        with mendel.service(cache_capacity=0) as service:
            service.query_text(probe_texts[0], serve_params)
            assert not service.query_text(probe_texts[0], serve_params).cached


class TestAdmission:
    def test_load_shedding_when_queue_full(self, mendel, held_engine,
                                           probe_texts, serve_params):
        with mendel.service(
            max_pending=2, cache_capacity=0,
        ) as service:
            admitted = [
                service.submit_text(probe_texts[i], serve_params, f"a{i}")
                for i in range(2)
            ]
            shed = service.submit_text(probe_texts[2], serve_params, "shed")
            with pytest.raises(Overloaded, match="admission queue full"):
                shed.result(timeout=5)
            assert service.stats.shed == 1
            held_engine.set()
            for future in admitted:
                assert future.result(timeout=60).report is not None
            assert service.stats.completed == 2

    def test_admission_slots_recycle(self, service, probe_texts, serve_params):
        # After previous work drains, the queue depth returns to zero.
        service.query_text(probe_texts[3], serve_params)
        deadline = time.monotonic() + 10
        while service.queue_depth and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.queue_depth == 0


class TestDeadlines:
    def test_expired_in_queue_returns_structured_timeout(self, mendel,
                                                         held_engine,
                                                         probe_texts,
                                                         serve_params):
        # One worker, held by the first request: the second waits in the
        # pool's queue past its deadline and expires before it executes.
        with mendel.service(cache_capacity=0) as service:
            first = service.submit_text(probe_texts[0], serve_params)
            future = service.submit_text(
                probe_texts[1], serve_params, deadline=0.01
            )
            time.sleep(0.05)
            held_engine.set()
            with pytest.raises(DeadlineExceeded, match="deadline expired"):
                future.result(timeout=10)
            assert first.result(timeout=60).report is not None
            assert service.stats.timeouts == 1

    def test_sync_wait_timeout(self, mendel, held_engine, probe_texts,
                               serve_params):
        with mendel.service(cache_capacity=0) as service:
            with pytest.raises(DeadlineExceeded):
                service.query_text(probe_texts[0], serve_params, deadline=0.05)
            held_engine.set()


class TestValidation:
    def test_alphabet_mismatch_is_invalid(self, service, serve_params):
        future = service.submit_text("ACGTACGTACGT!!", serve_params)
        with pytest.raises(InvalidRequest):
            future.result(timeout=5)
        assert service.stats.invalid >= 1

    def test_short_query_is_invalid(self, service, serve_params):
        future = service.submit_text("MK", serve_params)
        with pytest.raises(InvalidRequest, match="shorter than"):
            future.result(timeout=5)

    def test_runner_failure_is_contained(self, mendel, monkeypatch,
                                         probe_texts, serve_params):
        def broken(records, params=None, trace_contexts=None):
            raise RuntimeError("cluster on fire")

        monkeypatch.setattr(mendel, "query_many", broken)
        with mendel.service(cache_capacity=0) as service:
            future = service.submit_text(probe_texts[0], serve_params)
            with pytest.raises(RuntimeError, match="cluster on fire"):
                future.result(timeout=10)
            assert service.stats.errors == 1
            # The service survives: a fresh healthy submit still works.
            assert service.health()["status"] == "ok"


class TestLifecycleAndStats:
    def test_closed_service_rejects(self, mendel, probe_texts):
        service = mendel.service()
        service.close()
        future = service.submit_text(probe_texts[0])
        with pytest.raises(ServiceClosed):
            future.result(timeout=5)

    def test_submit_racing_close_releases_its_slot(self, mendel, probe_texts,
                                                   serve_params):
        service = mendel.service(cache_capacity=0)
        # close() has shut the pool down but not yet flagged the service.
        service._pool.shutdown()
        future = service.submit_text(probe_texts[0], serve_params)
        with pytest.raises(ServiceClosed):
            future.result(timeout=5)
        assert service.queue_depth == 0
        service.close()

    def test_snapshot_shape(self, service, probe_texts, serve_params):
        service.query_text(probe_texts[4], serve_params)
        snap = service.snapshot()
        assert snap["received"] >= 1
        assert snap["completed"] >= 1
        assert snap["max_pending"] == 64
        assert "hit_rate" in snap["cache"]
        assert "batcher" not in snap
        assert snap["latency"]["count"] >= 1
        assert snap["latency"]["p50_ms"] >= 0

    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["max_pending"] == 64
