"""Serving: run the TCP query gateway and drive it with concurrent clients.

Run with::

    python examples/serving.py

Starts an in-process gateway (asyncio TCP server over a
:class:`~repro.serve.service.QueryService`, whose one engine worker runs
every query) in front of a small Mendel deployment, then drives four
workloads:

1. **cold sweep** — every client asks distinct questions (pure misses);
2. **cache-hot repeat** — clients hammer a small shared hot set, so most
   requests short-circuit in the result cache;
3. **overload burst** — a second, deliberately tiny service (admission
   bound 4) is hit by a wide burst; excess requests are *shed*
   with structured ``overloaded`` errors instead of queueing unboundedly;
4. **node failure mid-run** — a storage node is killed while the gateway
   keeps serving: queries come back *degraded* (``coverage < 1``) rather
   than shed, requests with ``allow_partial=false`` get structured
   ``degraded`` errors, HEALTH flips to ``degraded``, and recovery
   restores full coverage.

Prints wall-clock throughput, cache hit-rate, shed counts, and the
shed-vs-degraded accounting per phase.
"""

from __future__ import annotations

import threading
import time

from repro import Mendel, MendelConfig, QueryParams
from repro.seq import PROTEIN, random_set
from repro.serve import BackgroundServer, ServeClient

PARAMS = {"k": 4, "n": 4, "i": 0.6, "c": 0.4}


def drive(host: str, port: int, n_clients: int, texts_for) -> list[dict]:
    """Fire *n_clients* threads; client *i* sends ``texts_for(i)`` queries."""
    responses: list[dict] = []
    lock = threading.Lock()

    def run(client_id: int) -> None:
        with ServeClient(host, port, timeout=120) as client:
            for j, text in enumerate(texts_for(client_id)):
                response = client.query(
                    text, params=PARAMS, query_id=f"c{client_id}.{j}",
                    deadline=60.0, top=1,
                )
                with lock:
                    responses.append(response)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses


def summarise(phase: str, responses: list[dict], elapsed: float) -> None:
    ok = [r for r in responses if r.get("ok")]
    shed = [r for r in responses if r.get("error") == "overloaded"]
    other = len(responses) - len(ok) - len(shed)
    cached = sum(1 for r in ok if r.get("cached"))
    print(
        f"{phase:>14}: {len(responses)} requests in {elapsed:.2f}s "
        f"({len(responses) / elapsed:.1f} req/s) — "
        f"{len(ok)} ok ({cached} cached), {len(shed)} shed, {other} failed"
    )


def main() -> None:
    database = random_set(
        count=40, length=200, alphabet=PROTEIN, rng=7, id_prefix="ref"
    )
    mendel = Mendel.build(
        database, MendelConfig(group_count=3, group_size=2, seed=42)
    )
    print(f"deployment: {mendel.block_count} blocks on "
          f"{mendel.node_count} simulated nodes")

    # -- phases 1+2: a comfortably provisioned gateway -----------------------
    service = mendel.service(max_pending=64)
    with BackgroundServer(service) as server:
        print(f"gateway listening on {server.host}:{server.port}\n")

        cold_texts = [record.text[:64] for record in database.records[:16]]
        start = time.perf_counter()
        cold = drive(server.host, server.port, n_clients=8,
                     texts_for=lambda i: cold_texts[2 * i : 2 * i + 2])
        summarise("cold sweep", cold, time.perf_counter() - start)

        hot_texts = cold_texts[:4]  # a small shared hot set
        start = time.perf_counter()
        hot = drive(server.host, server.port, n_clients=8,
                    texts_for=lambda i: [hot_texts[(i + j) % 4]
                                         for j in range(4)])
        summarise("cache-hot", hot, time.perf_counter() - start)

        stats = ServeClient(server.host, server.port).call("stats")["stats"]
        print(f"\n  gateway stats: cache hit-rate "
              f"{stats['cache']['hit_rate']:.0%}, "
              f"p50 {stats['latency']['p50_ms']:.1f} ms / "
              f"p99 {stats['latency']['p99_ms']:.1f} ms\n")
    service.close()

    # -- phase 3: a starved gateway under a burst ----------------------------
    tiny = mendel.service(max_pending=4, cache_capacity=0)
    with BackgroundServer(tiny) as server:
        burst_texts = [record.text[:64] for record in database.records[16:]]
        start = time.perf_counter()
        burst = drive(server.host, server.port, n_clients=16,
                      texts_for=lambda i: [burst_texts[i % len(burst_texts)]])
        summarise("overload", burst, time.perf_counter() - start)
        shed = tiny.snapshot()["shed"]
        print(f"\n  starved gateway shed {shed} of {len(burst)} requests "
              f"(admission bound 4) — structured errors, no "
              f"queue collapse")
    tiny.close()

    # -- phase 4: node failure mid-run — shed vs degraded accounting ---------
    faulty = mendel.service(max_pending=32, cache_capacity=0)
    with BackgroundServer(faulty) as server:
        probe_texts = [record.text[:64] for record in database.records[:8]]
        with ServeClient(server.host, server.port, timeout=120) as client:
            victim = mendel.index.topology.groups[0].nodes[0]
            mendel.fail_node(victim.node_id)
            print(f"\n  killed {victim.node_id} mid-run; gateway health: "
                  f"{client.call('health')['status']}")

            served_degraded = rejected = complete = 0
            start = time.perf_counter()
            for j, text in enumerate(probe_texts):
                # Even requests accept partial answers; odd ones demand
                # completeness — under failure those are refused, not shed.
                response = client.query(
                    text, params=PARAMS, query_id=f"f{j}",
                    allow_partial=(j % 2 == 0),
                )
                if response.get("ok"):
                    if response["degraded"]:
                        served_degraded += 1
                    else:
                        complete += 1
                elif response.get("error") == "degraded":
                    rejected += 1
            elapsed = time.perf_counter() - start
            print(f"  under failure: {complete} complete, {served_degraded} "
                  f"degraded (partial coverage), {rejected} rejected "
                  f"(allow_partial=false) in {elapsed:.2f}s")

            snapshot = faulty.snapshot()
            print(f"  serve stats: shed={snapshot['shed']} "
                  f"degraded={snapshot['degraded']} "
                  f"partial_rejected={snapshot['partial_rejected']} — "
                  f"failures degrade answers, overload sheds them")

            mendel.recover_node(victim.node_id)
            after = client.query(probe_texts[1], params=PARAMS, query_id="post")
            print(f"  recovered {victim.node_id}; health: "
                  f"{client.call('health')['status']}, "
                  f"coverage {after['coverage']:.2f}")
            assert served_degraded + rejected > 0, (
                "expected degraded answers while a node was down"
            )
            assert after["coverage"] == 1.0 and not after["degraded"]
    faulty.close()

    assert any(r.get("cached") for r in hot), "expected cache hits"
    print("\nOK: served concurrent load with caching, load shedding, and "
          "degraded-mode answers under node failure")


if __name__ == "__main__":
    main()
