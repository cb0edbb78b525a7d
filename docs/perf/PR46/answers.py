"""Answers and ``QueryStats`` of probed queries on one checkout, and the
comparison of two such runs.

    python answers.py run <checkout> <workload> <seed> <queries> <out.json>
    python answers.py compare <parent.json> <change.json>

``run`` builds the workload's deployment from ``perfbench.workloads
.make_inputs(<workload>, <seed>, 20.0)`` with the checkout's ``src/`` and
queries every (len/N)-th read of its timed pool (``sweep`` on
``storage_lifecycle``, ``closed`` on ``serve_gateway``) with the workload's
parameters.  On ``storage_lifecycle`` the deployment is first spilled the
way the workload's cold sweep is (a cache of 10 % of the raw codes,
``TierConfig(page_rows=128)``).  Each query records
``perfbench.check.signature`` of its report and every ``QueryStats`` field.
``compare`` prints how many answers are equal and how many are supersets
of the parent's, names each query whose answer or stats differ (with the
subjects it gained or lost, those whose alignment changed and its best
score before and after, and the fields that moved), and the mean of a few
figures on both sides.
"""

import dataclasses
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
        rows.append({
            "id": read.record.seq_id,
            "alignments": [list(a) for a in signature(report)],
            "stats": dataclasses.asdict(report.stats),
        })
    with open(out, "w") as handle:
        json.dump(rows, handle)


def compare(parent: str, change: str) -> None:
    before, after = (json.load(open(path)) for path in (parent, change))
    equal = superset = same_stats = 0
    for old, new in zip(before, after, strict=True):
        old_set = {tuple(a) for a in old["alignments"]}
        new_set = {tuple(a) for a in new["alignments"]}
        equal += old["alignments"] == new["alignments"]
        superset += new_set >= old_set
        same_stats += old["stats"] == new["stats"]
        if old["alignments"] != new["alignments"] or old["stats"] != new["stats"]:
            moved = sorted(name for name in old["stats"]
                           if old["stats"][name] != new["stats"][name])
            gained = {a[0] for a in new_set - old_set}
            lost = {a[0] for a in old_set - new_set}
            rescored = [f"{subject} score {max(a[5] for a in old_set - new_set if a[0] == subject)}"
                        f" -> {max(a[5] for a in new_set - old_set if a[0] == subject)}"
                        for subject in sorted(gained & lost)]
            print(f"  {new['id']}: gained {sorted(gained - lost)} lost {sorted(lost - gained)}"
                  f" rescored {rescored} stats moved {moved}")
    print(f"queries {len(before)}  equal {equal}  superset {superset}"
          f"  stats equal {same_stats}")
    for name in ("turnaround", "node_evals", "gapped_extensions",
                 "alignments_reported"):
        old = statistics.mean(row["stats"][name] for row in before)
        new = statistics.mean(row["stats"][name] for row in after)
        print(f"{name:20} {old:14.6f} -> {new:14.6f}")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6])
    else:
        compare(sys.argv[2], sys.argv[3])
