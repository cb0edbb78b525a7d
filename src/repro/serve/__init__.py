"""repro.serve — the query-serving gateway over a built Mendel deployment.

The layers, bottom-up:

* :mod:`~repro.serve.cache` — LRU + TTL result cache with canonical keys;
* :mod:`~repro.serve.service` — :class:`QueryService`: bounded admission
  (load shedding), per-request deadlines, and one engine worker that runs
  every index-touching call (QUERY, EXPLAIN, SCRUB, RECOVER) one at a time
  in arrival order;
* :mod:`~repro.serve.protocol` — the wire format and :data:`OPS`, the one
  declaration of each op's fields that every request is checked against;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — an asyncio TCP
  JSON-lines front end and a retrying blocking client
  (``client.query(...)``, ``client.call(op, **fields)``);
* :mod:`~repro.serve.stats` — wall-clock request counters and latency
  percentiles surfaced through the STATS op.

Quick start::

    from repro.serve import QueryService, BackgroundServer, ServeClient

    service = mendel.service(max_pending=64)
    with BackgroundServer(service) as server:
        with ServeClient(server.host, server.port) as client:
            print(client.query("MKV...", deadline=2.0))
            print(client.call("health")["status"])
"""

from repro.serve.cache import MISS, CacheStats, ResultCache
from repro.serve.client import ServeClient
from repro.serve.errors import (
    ClientTimeout,
    DeadlineExceeded,
    DegradedResult,
    InvalidRequest,
    Overloaded,
    ServeError,
    ServiceClosed,
    Unavailable,
)
from repro.serve.server import BackgroundServer, QueryServer
from repro.serve.service import QueryService, ServeResult
from repro.serve.stats import ServiceStats

__all__ = [
    "BackgroundServer",
    "CacheStats",
    "ClientTimeout",
    "DeadlineExceeded",
    "DegradedResult",
    "InvalidRequest",
    "MISS",
    "Overloaded",
    "QueryServer",
    "QueryService",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "ServeResult",
    "ServiceClosed",
    "ServiceStats",
    "Unavailable",
]
