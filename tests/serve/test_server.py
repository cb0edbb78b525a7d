"""End-to-end: asyncio TCP server + blocking clients over one deployment.

The acceptance scenario: >= 8 concurrent clients through the gateway
against one ``Mendel`` deployment, asserting identical results to direct
``Mendel.query()``, a non-zero cache hit rate on repeated queries, and
structured (non-crash) errors for shed and timed-out requests.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import QueryParams
from repro.serve.client import ServeClient
from repro.serve.errors import InvalidRequest, Unavailable
from repro.serve.server import BackgroundServer


@pytest.fixture(scope="module")
def server(service):
    with BackgroundServer(service) as running:
        yield running


def wire_params(params: QueryParams) -> dict:
    return {"k": params.k, "n": params.n, "i": params.i, "c": params.c}


class TestEndToEnd:
    def test_eight_concurrent_clients(self, server, service, mendel,
                                      probe_texts, serve_params):
        """The headline scenario: 8 clients, 3 requests each, shared hot set."""
        n_clients = 8
        params = wire_params(serve_params)
        responses: dict[int, list[dict]] = {}
        failures: list[BaseException] = []

        def client_run(client_id: int) -> None:
            try:
                out = []
                with ServeClient(server.host, server.port, timeout=120) as c:
                    for j in range(3):
                        text = probe_texts[(client_id + j) % len(probe_texts)]
                        out.append(
                            c.query(text, params=params,
                                    query_id=f"c{client_id}.{j}")
                        )
                responses[client_id] = out
            except BaseException as exc:  # surfaced in the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=client_run, args=(i,))
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not failures, failures
        assert len(responses) == n_clients

        # Every request succeeded with a well-formed report.
        flat = [r for out in responses.values() for r in out]
        assert len(flat) == n_clients * 3
        assert all(r["ok"] for r in flat)

        # Identical results to direct Mendel.query() for every probe text.
        for idx, text in enumerate(probe_texts):
            direct = mendel.query_text(text, serve_params, f"direct{idx}")
            expected = [
                (a.subject_id, a.query_start, a.query_end,
                 pytest.approx(a.score))
                for a in direct.alignments
            ]
            served = [
                r for cid, out in responses.items() for j, r in enumerate(out)
                if probe_texts[(cid + j) % len(probe_texts)] == text
            ]
            assert served, f"no client exercised probe {idx}"
            for response in served:
                got = [
                    (a["subject_id"], a["query_start"], a["query_end"],
                     a["score"])
                    for a in response["alignments"]
                ]
                assert got == expected

        # 24 requests over 6 distinct searches: repeats must hit the cache.
        assert sum(r["cached"] for r in flat) > 0
        stats = ServeClient(server.host, server.port).call("stats")
        assert stats["ok"]
        assert stats["stats"]["cache"]["hit_rate"] > 0
        assert stats["stats"]["cache"]["hits"] > 0

    def test_stats_and_health_ops(self, server):
        with ServeClient(server.host, server.port) as client:
            health = client.call("health")
            assert health["ok"] and health["status"] == "ok"
            stats = client.call("stats")
            assert stats["ok"]
            assert {"received", "completed", "latency",
                    "cache"} <= set(stats["stats"])
            assert "batcher" not in stats["stats"]

    def test_cached_repeat_same_connection(self, server, probe_texts,
                                           serve_params):
        params = wire_params(serve_params)
        with ServeClient(server.host, server.port, timeout=120) as client:
            first = client.query(probe_texts[0], params=params, query_id="r1")
            second = client.query(probe_texts[0], params=params, query_id="r2")
        assert first["ok"] and second["ok"]
        assert second["cached"]
        assert second["query_id"] == "r2"
        assert [a["subject_id"] for a in second["alignments"]] == [
            a["subject_id"] for a in first["alignments"]
        ]

    def test_top_truncation(self, server, probe_texts, serve_params):
        with ServeClient(server.host, server.port, timeout=120) as client:
            response = client.query(
                probe_texts[0], params=wire_params(serve_params), top=1
            )
        assert response["ok"]
        assert len(response["alignments"]) <= 1
        assert response["alignment_count"] >= len(response["alignments"])


class TestStructuredErrors:
    def test_timeout_is_structured(self, mendel, held_engine, probe_texts,
                                   serve_params):
        service = mendel.service(cache_capacity=0)
        try:
            with BackgroundServer(service) as server:
                with ServeClient(server.host, server.port, timeout=30) as c:
                    response = c.query(
                        probe_texts[0], params=wire_params(serve_params),
                        deadline=0.05, query_id="late",
                    )
            assert response["ok"] is False
            assert response["error"] == "deadline_exceeded"
            assert response["id"] == "late"
        finally:
            held_engine.set()
            service.close()

    def test_shed_is_structured(self, mendel, held_engine, probe_texts,
                                serve_params):
        service = mendel.service(max_pending=1,
                                 cache_capacity=0)
        try:
            with BackgroundServer(service) as server:
                hold = ServeClient(server.host, server.port, timeout=120)
                burst = ServeClient(server.host, server.port, timeout=30)
                blocker: list[dict] = []
                t = threading.Thread(
                    target=lambda: blocker.append(
                        hold.query(probe_texts[0],
                                   params=wire_params(serve_params),
                                   query_id="hold")
                    )
                )
                t.start()
                # Wait until the blocker occupies the single admission slot.
                deadline = threading.Event()
                for _ in range(200):
                    if service.queue_depth >= 1:
                        break
                    deadline.wait(0.01)
                assert service.queue_depth >= 1
                shed = burst.query(probe_texts[1],
                                   params=wire_params(serve_params),
                                   query_id="shed")
                assert shed["ok"] is False
                assert shed["error"] == "overloaded"
                held_engine.set()
                t.join(timeout=60)
                assert blocker and blocker[0]["ok"]
                hold.close()
                burst.close()
        finally:
            held_engine.set()
            service.close()

    def test_invalid_requests_are_structured(self, server):
        with ServeClient(server.host, server.port) as client:
            bad_op = client.request({"op": "explode", "id": "x"})
            assert bad_op["ok"] is False and bad_op["error"] == "invalid_request"
            no_seq = client.request({"op": "query", "id": "y"})
            assert no_seq["ok"] is False and no_seq["error"] == "invalid_request"
            bad_params = client.query("MKVAWLAMKVAWLA",
                                      params={"bogus_knob": 1})
            assert bad_params["error"] == "invalid_request"
            assert "bogus_knob" in bad_params["message"]
            bad_residues = client.query("!!!!!!!!!!")
            assert bad_residues["error"] == "invalid_request"

    def test_bad_fields_fail_before_the_query_runs(self, mendel, monkeypatch,
                                                   probe_texts):
        """A bad ``top`` or a JSON boolean where a number belongs answers
        ``invalid_request`` without running, caching or profiling."""
        calls = []
        query_many = mendel.query_many

        def counted(records, params=None, trace_contexts=None):
            calls.append(records[0].seq_id)
            return query_many(records, params, trace_contexts=trace_contexts)

        monkeypatch.setattr(mendel, "query_many", counted)
        seq = probe_texts[0]
        cases = [
            ({"op": "query", "seq": seq, "top": "abc"},
             "top must be a non-negative integer, got 'abc'"),
            ({"op": "query", "seq": seq, "top": True},
             "top must be a non-negative integer, got True"),
            ({"op": "query", "seq": seq, "top": -1},
             "top must be a non-negative integer, got -1"),
            ({"op": "query", "seq": seq, "deadline": True},
             "deadline must be a positive number, got True"),
            ({"op": "query", "seq": seq, "params": {"k": True}},
             "bad query params: k must not be a boolean, got True"),
            ({"op": "profile", "action": "start", "hz": True},
             "hz must be a positive number, got True"),
        ]
        service = mendel.service()
        try:
            with BackgroundServer(service) as server:
                with ServeClient(server.host, server.port, timeout=30) as c:
                    for frame, message in cases:
                        reply = c.request({"id": "bad", **frame})
                        assert reply["ok"] is False, reply
                        assert reply["error"] == "invalid_request"
                        assert reply["message"] == message
                        assert reply["id"] == "bad"
                    assert c.query(seq, top=0)["alignments"] == []
            assert calls == ["query"]
            assert service.cache.snapshot()["size"] == 1
            assert service.snapshot()["invalid"] == 0
            with pytest.raises(InvalidRequest, match="no profiler"):
                service.profile("snapshot")
        finally:
            service.close()

    def test_junk_line_is_structured(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as raw:
            raw.sendall(b"this is not json\n")
            data = b""
            while b"\n" not in data:
                chunk = raw.recv(65536)
                assert chunk, "server closed without responding"
                data += chunk
        response = json.loads(data.split(b"\n", 1)[0])
        assert response["ok"] is False
        assert response["error"] == "invalid_request"


@pytest.mark.chaos
class TestEngineWorker:
    @pytest.fixture()
    def mendel(self, protein_db):
        """A deployment of the tests' own: an autoscaler tick really splits
        it."""
        from repro.core import Mendel, MendelConfig

        return Mendel.build(
            protein_db,
            MendelConfig(group_count=3, group_size=2, sample_size=256, seed=7),
        )

    def test_scrub_and_recover_wait_for_a_running_query(
        self, mendel, held_engine, monkeypatch, probe_texts, serve_params
    ):
        """SCRUB and RECOVER rebuild nodes a running query reads: sent while
        a query holds the engine, neither starts before that query returns,
        and they run in the order they arrived."""
        from repro.core.index import MendelIndex
        from repro.obs.events import EventLog
        from repro.store.scrub import IntegrityScrubber

        returned = threading.Event()
        held = mendel.query_many

        def tracked(records, params=None, trace_contexts=None):
            try:
                return held(records, params, trace_contexts=trace_contexts)
            finally:
                returned.set()

        started: list[tuple[str, bool]] = []

        def scrub_all(scrubber, now=None):
            started.append(("scrub", returned.is_set()))
            return []

        def recover_node(index, node_id):
            started.append(("recover", returned.is_set()))
            return index.node(node_id)

        monkeypatch.setattr(mendel, "query_many", tracked)
        monkeypatch.setattr(IntegrityScrubber, "scrub_all", scrub_all)
        monkeypatch.setattr(MendelIndex, "recover_node", recover_node)
        node_id = mendel.index.topology.nodes[0].node_id
        frames = {
            "query": lambda c: c.query(probe_texts[0],
                                       params=wire_params(serve_params)),
            "scrub": lambda c: c.call("scrub"),
            "recover": lambda c: c.call("recover", node=node_id),
        }
        replies: dict[str, dict] = {}

        def send(op: str) -> None:
            with ServeClient(server.host, server.port, timeout=60) as client:
                replies[op] = frames[op](client)

        service = mendel.service(cache_capacity=0, event_log=EventLog())
        try:
            with BackgroundServer(service) as server:
                threads = {op: threading.Thread(target=send, args=(op,))
                           for op in frames}
                threads["query"].start()
                for _ in range(200):
                    if service.queue_depth:
                        break
                    time.sleep(0.01)
                threads["scrub"].start()
                time.sleep(0.1)
                threads["recover"].start()
                time.sleep(0.3)
                assert started == [], "an index verb ran beside the query"
                held_engine.set()
                for thread in threads.values():
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            held_engine.set()
            service.close()
        assert all(reply["ok"] for reply in replies.values()), replies
        assert started == [("scrub", True), ("recover", True)]

    def test_ticking_reads_wait_for_a_running_query(
        self, mendel, held_engine, monkeypatch, probe_texts, serve_params
    ):
        """HEALTH, ALERTS and STATS tick the autoscaler, and a tick may split
        a group a running query reads.  Sent while a query holds the engine,
        each read answers at once, and the split it is primed for starts
        only after the query returns."""
        from repro.core.index import MendelIndex
        from repro.obs.events import EventLog
        from repro.scale import ScalerPolicy
        from repro.scale.policy import ACTION_SPLIT_GROUP, ScaleDecision

        class SplitNow(ScalerPolicy):
            def decide(self, signals):
                return ScaleDecision(ACTION_SPLIT_GROUP, group="g00",
                                     reason="primed")

        returned = threading.Event()
        held = mendel.query_many

        def tracked(records, params=None, trace_contexts=None):
            try:
                return held(records, params, trace_contexts=trace_contexts)
            finally:
                returned.set()

        started: list[bool] = []
        split_group = MendelIndex.split_group

        def tracked_split(index, group_id, settle=True):
            started.append(returned.is_set())
            return split_group(index, group_id, settle=settle)

        monkeypatch.setattr(mendel, "query_many", tracked)
        monkeypatch.setattr(MendelIndex, "split_group", tracked_split)
        replies: dict[str, dict] = {}

        def send_query() -> None:
            with ServeClient(server.host, server.port, timeout=60) as client:
                replies["query"] = client.query(
                    probe_texts[0], params=wire_params(serve_params)
                )

        service = mendel.service(cache_capacity=0, event_log=EventLog())
        service.enable_autoscaler(policy=SplitNow(cooldown_ticks=0))
        try:
            with BackgroundServer(service) as server:
                query = threading.Thread(target=send_query)
                query.start()
                for _ in range(200):
                    if service.queue_depth:
                        break
                    time.sleep(0.01)
                # A read that waited for the engine would time out here.
                with ServeClient(server.host, server.port, timeout=10) as c:
                    for op in ("health", "alerts", "stats"):
                        replies[op] = c.call(op)
                assert started == [], "a tick split a group beside the query"
                held_engine.set()
                query.join(timeout=60)
                assert not query.is_alive()
                service.on_engine(lambda: None).result(timeout=60)
        finally:
            held_engine.set()
            service.close()
        assert all(reply["ok"] for reply in replies.values()), replies
        assert started and all(started)
        assert len(mendel.index.topology.groups) > 3


class TestClientRetry:
    def test_unreachable_port_backs_off_then_fails(self):
        sleeps: list[float] = []
        # Reserve a port and close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient("127.0.0.1", port, timeout=0.2, retries=3,
                             backoff=0.01, sleep=sleeps.append)
        with pytest.raises(Unavailable, match="after 4 attempts"):
            client.connect()
        assert sleeps == [0.01, 0.02, 0.04]

    def test_retry_succeeds_once_server_appears(self, service):
        started: dict = {}

        def sleep_then_start(_delay: float) -> None:
            # First backoff: bring the server up, then let the retry hit it.
            if "server" not in started:
                started["server"] = BackgroundServer(
                    service, host="127.0.0.1", port=started["port"]
                ).start()

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started["port"] = port
        client = ServeClient("127.0.0.1", port, timeout=10, retries=5,
                             backoff=0.01, sleep=sleep_then_start)
        try:
            client.connect()
            assert client.call("health")["ok"]
        finally:
            client.close()
            if "server" in started:
                started["server"].stop()
