"""Dump what N queries of a perfbench workload answer and count, for one
checkout, so two checkouts can be compared byte for byte.

    python answers.py <checkout> <workload> <seed> <queries> <out.json>

Builds the workload's deployment from ``perfbench.workloads.make_inputs``
(all-RAM), queries every (len/N)-th read of its ``timed`` pool one at a
time, and writes each query's alignments and full ``QueryStats``
(turnaround included), each node's ``queries_served`` / ``corrupt_reads`` /
metric evaluations, and each group's ``repro_distance_evaluations_total``.
Prints the wall time a query took on this machine (not normalised).
"""

import dataclasses
import json
import sys
import time


def main() -> None:
    root, workload, seed, count, out = sys.argv[1:6]
    sys.path[:0] = [root + "/src", root]
    from perfbench.workloads import make_inputs
    from repro.core import Mendel
    from repro.obs.metrics import default_registry

    inputs = make_inputs(workload, int(seed), 20.0)
    mendel = Mendel.build(inputs.database, inputs.config)
    pool = inputs.pools["timed"]
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
    topology = mendel.index.topology
    registry = default_registry()
    with open(out, "w") as handle:
        json.dump({
            "rows": rows,
            "nodes": {node.node_id: (node.stats.queries_served,
                                     node.stats.corrupt_reads,
                                     node.tree.adapter.pair_evaluations)
                      for node in topology.nodes},
            "evals": {group.group_id: registry.value(
                "repro_distance_evaluations_total", group=group.group_id)
                for group in topology.groups},
        }, handle, sort_keys=True)
    print(f"{workload} seed {seed}: {len(reads)} queries, "
          f"{wall * 1e3 / len(reads):.2f} ms/query")


if __name__ == "__main__":
    main()
