"""Degraded-mode serving: partial results, ``allow_partial``, health.

These tests build their own (small, unreplicated) deployment because they
kill nodes — the shared module fixtures must stay healthy for the rest of
the suite.
"""

from __future__ import annotations

import pytest

from repro import Mendel, MendelConfig, QueryParams
from repro.serve.client import ServeClient
from repro.serve.errors import DegradedResult
from repro.serve.server import BackgroundServer

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def fragile():
    """An unreplicated deployment plus its database: any node kill makes
    some blocks unreachable, so queries come back degraded."""
    from repro.seq import PROTEIN, random_set

    db = random_set(count=14, length=120, alphabet=PROTEIN, rng=91,
                    id_prefix="dg")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=2, replication=1,
                     sample_size=64, seed=47),
    )
    return mendel, db


PARAMS = QueryParams(k=4, n=4, i=0.6, c=0.4)


def kill_one_per_group(mendel):
    victims = [group.nodes[0].node_id
               for group in mendel.index.topology.groups]
    for node_id in victims:
        mendel.fail_node(node_id)
    return victims


class TestDegradedService:
    def test_partial_result_served_and_flagged(self, fragile):
        mendel, db = fragile
        text = db.records[0].text[:60]
        with mendel.service() as service:
            victims = kill_one_per_group(mendel)
            try:
                result = service.query_text(text, PARAMS, "deg0")
                assert result.report.degraded is True
                assert result.report.coverage < 1.0
                assert set(result.report.failed_nodes) == set(victims)
                assert service.stats.snapshot()["degraded"] >= 1
            finally:
                for node_id in victims:
                    mendel.recover_node(node_id)

    def test_degraded_results_never_cached(self, fragile):
        mendel, db = fragile
        text = db.records[1].text[:60]
        with mendel.service(cache_capacity=32) as service:
            victims = kill_one_per_group(mendel)
            try:
                first = service.query_text(text, PARAMS, "nc0")
                assert first.report.degraded
                repeat = service.query_text(text, PARAMS, "nc1")
                assert not repeat.cached  # a partial answer must not stick
            finally:
                for node_id in victims:
                    mendel.recover_node(node_id)
            # Healthy again: the same search is complete and cacheable.
            healthy = service.query_text(text, PARAMS, "nc2")
            assert healthy.report.degraded is False
            assert healthy.report.coverage == 1.0
            assert service.query_text(text, PARAMS, "nc3").cached

    def test_allow_partial_false_rejects(self, fragile):
        mendel, db = fragile
        text = db.records[2].text[:60]
        with mendel.service() as service:
            victims = kill_one_per_group(mendel)
            try:
                with pytest.raises(DegradedResult) as excinfo:
                    service.query_text(text, PARAMS, "strict",
                                       allow_partial=False)
                error = excinfo.value
                assert error.code == "degraded"
                payload = error.to_dict()
                assert payload["coverage"] < 1.0
                assert set(payload["failed_nodes"]) == set(victims)
                assert service.stats.snapshot()["partial_rejected"] >= 1
            finally:
                for node_id in victims:
                    mendel.recover_node(node_id)

    def test_health_reflects_cluster_state(self, fragile):
        mendel, _ = fragile
        with mendel.service() as service:
            assert service.health()["status"] == "ok"
            victims = kill_one_per_group(mendel)
            try:
                health = service.health()
                assert health["status"] == "degraded"
                assert health["cluster"]["nodes_dead"] == sorted(victims)
                assert health["cluster"]["nodes_alive"] == (
                    health["cluster"]["nodes_total"] - len(victims)
                )
            finally:
                for node_id in victims:
                    mendel.recover_node(node_id)
            assert service.health()["status"] == "ok"
            assert service.health()["cluster"]["nodes_dead"] == []


class TestDegradedWire:
    """The same contract over the TCP server/client pair."""

    def test_round_trip_degraded_flags_and_strict_error(self, fragile):
        mendel, db = fragile
        text = db.records[3].text[:60]
        params = {"k": PARAMS.k, "n": PARAMS.n, "i": PARAMS.i, "c": PARAMS.c}
        with mendel.service() as service:
            with BackgroundServer(service) as server:
                victims = kill_one_per_group(mendel)
                try:
                    with ServeClient(server.host, server.port,
                                     timeout=120) as client:
                        lenient = client.query(text, params=params,
                                               query_id="w0")
                        assert lenient["ok"] is True
                        assert lenient["degraded"] is True
                        assert lenient["coverage"] < 1.0
                        assert set(lenient["failed_nodes"]) == set(victims)

                        strict = client.query(text, params=params,
                                              query_id="w1",
                                              allow_partial=False)
                        assert strict["ok"] is False
                        assert strict["error"] == "degraded"
                        assert strict["coverage"] < 1.0
                        assert set(strict["failed_nodes"]) == set(victims)

                        bad = client.request(
                            {"op": "query", "seq": text, "id": "w2",
                             "allow_partial": "nope"}
                        )
                        assert bad["ok"] is False
                        assert bad["error"] == "invalid_request"

                        health = client.call("health")
                        assert health["ok"] is True
                        assert health["status"] == "degraded"
                finally:
                    for node_id in victims:
                        mendel.recover_node(node_id)
