"""The EXPLAIN wire op: structured plans over the TCP gateway."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.query import FUNNEL_STAGES
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer


@pytest.fixture(scope="module")
def server(service):
    with BackgroundServer(service) as running:
        yield running


class TestExplainOp:
    def test_explain_returns_plan_and_rendering(self, server, probe_texts,
                                                serve_params):
        with ServeClient(server.host, server.port, timeout=120) as client:
            response = client.call("explain", id="xp1", seq=probe_texts[0],
                                   params=asdict(serve_params))
        assert response["ok"]
        assert response["id"] == "xp1"
        plan = response["plan"]
        assert [s["stage"] for s in plan["funnel"]] == [
            stage for stage, _field in FUNNEL_STAGES
        ]
        counts = [s["count"] for s in plan["funnel"]]
        assert all(b <= a for a, b in zip(counts, counts[1:])), counts
        assert plan["windows"] > 0
        assert plan["groups_contacted"]
        # The rendering carries the funnel table the CLI prints.
        assert "knn_candidates" in response["rendered"]

    def test_explain_bypasses_the_cache(self, server, probe_texts,
                                        serve_params):
        with ServeClient(server.host, server.port, timeout=120) as client:
            client.query(probe_texts[1], params={"k": serve_params.k,
                                                 "n": serve_params.n,
                                                 "i": serve_params.i,
                                                 "c": serve_params.c})
            response = client.call("explain", seq=probe_texts[1],
                                   params=asdict(serve_params))
        # An explain response is a fresh traced run, never a cache replay.
        assert response["ok"]
        assert "cached" not in response
        assert response["plan"]["turnaround_ms"] > 0

    def test_explain_matches_direct_plan(self, server, mendel, probe_texts,
                                         serve_params):
        from repro.seq import SequenceRecord

        with ServeClient(server.host, server.port, timeout=120) as client:
            served = client.call("explain", id="direct-check",
                                 seq=probe_texts[2],
                                 params=asdict(serve_params))
        record = SequenceRecord.from_text(
            "direct-check", probe_texts[2], mendel.index.alphabet
        )
        direct = mendel.explain(record, serve_params)
        assert [
            (s["stage"], s["count"], s["dropped"])
            for s in served["plan"]["funnel"]
        ] == [(s.stage, s.count, s.dropped) for s in direct.funnel]
        assert served["plan"]["groups_contacted"] == list(
            direct.groups_contacted
        )
        assert served["plan"]["subqueries_routed"] == (
            direct.subqueries_routed
        )

    def test_explain_without_seq_is_invalid(self, server):
        with ServeClient(server.host, server.port) as client:
            response = client.request({"op": "explain", "id": "bad"})
        assert response["ok"] is False
        assert response["error"] == "invalid_request"
        assert response["id"] == "bad"

    def test_explain_bad_residues_is_invalid(self, server):
        with ServeClient(server.host, server.port) as client:
            response = client.call("explain", id="junk", seq="!!!!!!!!!!")
        assert response["ok"] is False
        assert response["error"] == "invalid_request"
