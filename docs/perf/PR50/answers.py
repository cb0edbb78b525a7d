"""Dump what N queries of a perfbench workload answer and count, for one
checkout, so two checkouts can be compared byte for byte.

    python answers.py <checkout> <workload> <seed> <queries> <out.json> [seconds]

Builds the workload's deployment from ``perfbench.workloads.make_inputs``
(at *seconds*, default 20, which sizes the read pools) on its whole
database; ``storage_lifecycle`` is then spilled behind a cache of a tenth of
its raw codes (the workload's cold sweep), the others stay all-RAM.  Queries
every (len/N)-th read of the ``timed`` pool (``sweep`` on
``storage_lifecycle``, ``closed`` on ``serve_gateway``) one at a time and
writes each query's alignments and full ``QueryStats`` (turnaround
included), each node's ``queries_served`` / ``corrupt_reads`` / metric
evaluations and, when spilled, its tier's device seeks and bytes, each
group's ``repro_distance_evaluations_total`` and the cache's counters.
Prints the wall time a query took on this machine (not normalised).
"""

import dataclasses
import json
import sys
import time


def main() -> None:
    root, workload, seed, count, out = sys.argv[1:6]
    seconds = float(sys.argv[6]) if len(sys.argv) > 6 else 20.0
    sys.path[:0] = [root + "/src", root]
    import numpy as np

    from perfbench.workloads import make_inputs
    from repro.core import Mendel
    from repro.obs.metrics import default_registry
    from repro.tier import TierConfig

    inputs = make_inputs(workload, int(seed), seconds)
    mendel = Mendel.build(inputs.database, inputs.config)
    topology = mendel.index.topology
    cache = None
    if workload == "storage_lifecycle":
        raw = sum(np.asarray(n.tree.points).nbytes for n in topology.nodes)
        cache = mendel.spill(
            max(1, int(inputs.plan["cold_cache_fraction"] * raw)),
            TierConfig(page_rows=inputs.plan["page_rows"],
                       alphabet_size=inputs.database.alphabet.size))
    pool = inputs.pools[{"storage_lifecycle": "sweep",
                         "serve_gateway": "closed"}.get(workload, "timed")]
    reads = pool[::max(1, len(pool) // int(count))][:int(count)]
    rows = []
    start = time.perf_counter()
    for read in reads:
        report = mendel.query(read.record, inputs.params)
        rows.append({
            "id": report.query_id,
            "alignments": [(a.subject_id, a.query_start, a.query_end,
                            a.subject_start, a.subject_end, a.score, a.evalue)
                           for a in report.alignments],
            "stats": dataclasses.asdict(report.stats),
            "coverage": report.coverage,
        })
    wall = time.perf_counter() - start
    registry = default_registry()
    with open(out, "w") as handle:
        json.dump({
            "rows": rows,
            "nodes": {node.node_id: (node.stats.queries_served,
                                     node.stats.corrupt_reads,
                                     node.tree.adapter.pair_evaluations,
                                     *((node.tier.total_seeks, node.tier.total_bytes)
                                       if node.tier is not None else ()))
                      for node in topology.nodes},
            "evals": {group.group_id: registry.value(
                "repro_distance_evaluations_total", group=group.group_id)
                for group in topology.groups},
            "cache": cache.stats() if cache is not None else None,
        }, handle, sort_keys=True)
    print(f"{workload} seed {seed}: {len(reads)} queries, "
          f"{wall * 1e3 / len(reads):.2f} ms/query")


if __name__ == "__main__":
    main()
