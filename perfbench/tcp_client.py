"""The ``tcp_hit`` load generator: a process of its own, so that the clients'
interpreter lock is not the server's.

Reads one JSON job from standard input —
``{"host", "port", "seconds", "connections", "params", "reads": [{"id",
"text", "signature"}]}`` — replays the reads over ``connections``
``ServeClient`` connections for ``seconds`` and prints one JSON line:
``{"replies", "wall", "bad": [reasons]}``.  A reply is bad when it is not
``ok``, not ``cached``, or not the answer the job recorded.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter


def main() -> int:
    from repro.serve.client import ServeClient

    from perfbench.check import wire_signature

    job = json.load(sys.stdin)
    reads = [
        (read["id"], read["text"], tuple(tuple(row) for row in read["signature"]))
        for read in job["reads"]
    ]
    connections = job["connections"]
    counts = [0] * connections
    bad: list[str] = []
    origin = perf_counter()
    deadline = origin + job["seconds"]

    def client_loop(index: int) -> None:
        try:
            with ServeClient(job["host"], job["port"]) as client:
                position = index
                while perf_counter() < deadline:
                    seq_id, text, signature = reads[position % len(reads)]
                    position += connections
                    reply = client.query(text, params=job["params"], query_id=seq_id)
                    counts[index] += 1
                    if not (reply.get("ok") and reply.get("cached")):
                        bad.append(f"{seq_id}: ok={reply.get('ok')} "
                                   f"cached={reply.get('cached')}")
                    elif wire_signature(reply) != signature:
                        bad.append(f"{seq_id}: cached reply differs")
        except Exception as exc:  # a dead connection is a counted failure
            counts[index] += 1
            bad.append(f"connection {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client_loop, args=(i,)) for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps({
        "replies": sum(counts), "wall": perf_counter() - origin, "bad": bad[:20],
        "bad_count": len(bad),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
