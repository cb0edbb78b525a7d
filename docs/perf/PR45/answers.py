"""Answers, modelled figures and cold reads of probed queries on one
checkout, and the comparison of two such runs.

    python answers.py run <checkout> <workload> <seed> <queries> <out.json>
    python answers.py compare <parent.json> <change.json>

``run`` builds the workload's deployment from ``perfbench.workloads
.make_inputs(<workload>, <seed>, 20.0)`` with the checkout's ``src/`` and
queries every (len/N)-th read of its timed pool (``sweep`` on
``storage_lifecycle``, ``closed`` on ``serve_gateway``) with the workload's
parameters.  On ``storage_lifecycle`` the deployment is first spilled the
way the workload's cold sweep is (a cache of 10 % of the raw codes,
``TierConfig(page_rows=128)``).  Each query records
``perfbench.check.signature`` of its report, its sim turnaround, the rows
its nodes scored and the bytes its messages carried.  ``compare`` prints how many
answers are equal and how many are supersets of the parent's, and the mean
of each figure on both sides.
"""

import json
import statistics
import sys


def run(checkout: str, workload: str, seed: int, count: int, out: str) -> None:
    sys.path[:0] = [f"{checkout}/src", checkout]
    import numpy as np

    from perfbench.check import signature
    from perfbench.workloads import make_inputs
    from repro import Mendel
    from repro.tier import TierConfig

    inputs = make_inputs(workload, seed, 20.0)
    pool = inputs.pools[{"storage_lifecycle": "sweep",
                         "serve_gateway": "closed"}.get(workload, "timed")]
    mendel = Mendel.build(inputs.database, inputs.config)
    if workload == "storage_lifecycle":
        raw = sum(np.asarray(n.tree.points).nbytes
                  for n in mendel.index.topology.nodes)
        mendel.spill(cache_bytes=raw // 10, config=TierConfig(
            page_rows=128, alphabet_size=inputs.database.alphabet.size))
    rows = []
    for read in pool[:: max(1, len(pool) // count)][:count]:
        report = mendel.query(read.record, inputs.params)
        stats = report.stats
        rows.append({
            "id": read.record.seq_id,
            "alignments": [list(a) for a in signature(report)],
            "turnaround_ms": stats.turnaround * 1e3,
            "node_evals": stats.node_evals,
            "bytes_sent": stats.bytes_sent,
        })
    with open(out, "w") as handle:
        json.dump(rows, handle)


def compare(parent: str, change: str) -> None:
    before, after = (json.load(open(path)) for path in (parent, change))
    equal = superset = 0
    for old, new in zip(before, after, strict=True):
        old_set = {tuple(a) for a in old["alignments"]}
        new_set = {tuple(a) for a in new["alignments"]}
        equal += old["alignments"] == new["alignments"]
        superset += new_set >= old_set
    print(f"queries {len(before)}  equal {equal}  superset {superset}")
    for name in ("turnaround_ms", "node_evals", "bytes_sent"):
        old = statistics.mean(row[name] for row in before)
        new = statistics.mean(row[name] for row in after)
        print(f"{name:16} {old:12.4f} -> {new:12.4f}")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6])
    else:
        compare(sys.argv[2], sys.argv[3])
