"""repro — a full reproduction of *Mendel: A Distributed Storage Framework
for Similarity Searching over Sequencing Data* (IPDPS 2016).

Public API highlights:

* :class:`repro.Mendel` — build an index over a reference database on a
  simulated cluster and run similarity queries.
* :class:`repro.MendelConfig` / :class:`repro.QueryParams` — deployment and
  per-query (Table I) parameters.
* :mod:`repro.seq` — sequence substrate (alphabets, FASTA, matrices,
  distances, generators).
* :mod:`repro.vptree` — vantage-point trees (static, dynamic, prefix LSH).
* :mod:`repro.blast` — the from-scratch BLAST baseline used in the paper's
  comparisons.
* :mod:`repro.bench` — workload generators and the per-figure experiment
  harness.
* :mod:`repro.serve` — the concurrent query-serving gateway (thread-pool
  service with admission control, deadlines, a result cache, and an
  asyncio TCP JSON-lines front end).
* :mod:`repro.faults` — the chaos layer: scripted fault injection
  (crashes, stragglers, lossy links, partitions), heartbeat failure
  detection, re-replication, and degraded-mode query reporting.
* :mod:`repro.obs` — observability: span-tree tracing through the query
  pipeline, a Prometheus-style metrics registry shared by the cluster and
  the gateway, and Chrome trace-event / text-exposition exporters.
"""

from repro.core.framework import Mendel
from repro.core.params import MendelConfig, QueryParams
from repro.core.query import QueryReport, QueryStats
from repro.faults.schedule import FaultEvent, FaultSchedule

__version__ = "1.0.0"

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "Mendel",
    "MendelConfig",
    "QueryParams",
    "QueryReport",
    "QueryStats",
    "__version__",
]
