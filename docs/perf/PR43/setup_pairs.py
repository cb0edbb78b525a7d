"""Alternating pairs of one workload's set-up on two checkouts.

    python setup_pairs.py <parent checkout> <change checkout> <workload> [pairs]

Each run is a fresh process in the checkout that times what perfbench's
set-up does: the workload's inputs at seed 23, ``Mendel.build`` and the
warm-up queries (through a ``QueryService`` on ``serve_gateway``), in raw
seconds.  The parent runs first in even pairs and the change in odd ones;
the medians, quartile distance and runs of each side are printed.
"""

import statistics
import subprocess
import sys

RUN = r'''
import sys, time
sys.path[:0] = ["src", "."]
from perfbench.workloads import make_inputs
from repro import Mendel
workload = sys.argv[1]
start = time.perf_counter()
inputs = make_inputs(workload, 23, 20.0)
mendel = Mendel.build(inputs.database, inputs.config)
if workload == "serve_gateway":
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import QueryService
    service = QueryService(mendel, registry=MetricsRegistry())
    for read in inputs.pools["warmup"]:
        service.query(read.record, inputs.params)
    print(time.perf_counter() - start)
    service.close()
else:
    for read in inputs.pools["warmup"]:
        mendel.query(read.record, inputs.params)
    print(time.perf_counter() - start)
'''


def main() -> None:
    parent, change, workload = sys.argv[1:4]
    pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
    trees = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]:
            proc = subprocess.run([sys.executable, "-c", RUN, workload],
                                  cwd=trees[side], capture_output=True,
                                  text=True, check=True)
            runs[side].append(float(proc.stdout.split()[-1]))
    for side, seconds in runs.items():
        quartiles = statistics.quantiles(seconds, n=4)
        print(workload, side, "median", round(statistics.median(seconds), 4),
              "IQR", round(quartiles[2] - quartiles[0], 4),
              [round(value, 3) for value in seconds])
    wins = sum(new < old for old, new in zip(runs["parent"], runs["change"]))
    print(workload, "change faster in", wins, "of", pairs)


if __name__ == "__main__":
    main()
