"""Bytes a kept ``QueryReport`` retains, for one checkout.

    python report_bytes.py <checkout> <workload> <seed> [reports]

Builds the workload's deployment from ``perfbench.workloads.make_inputs``
(20 s sizing), runs its warm-up pool and the first *reports* (default 150)
reads of the ``timed`` pool (so the engine's own caches are full), then
queries those reads again under ``tracemalloc``, keeping every report, and
prints the traced bytes that remain after a full
collection, divided by the number of reports.
"""

import gc
import sys
import tracemalloc


def main() -> None:
    root, workload, seed = sys.argv[1:4]
    count = int(sys.argv[4]) if len(sys.argv) > 4 else 150
    sys.path[:0] = [root + "/src", root]
    from perfbench.workloads import make_inputs
    from repro.core import Mendel

    inputs = make_inputs(workload, int(seed), 20.0)
    mendel = Mendel.build(inputs.database, inputs.config)
    for read in inputs.pools["warmup"]:
        mendel.query(read.record, inputs.params)
    reads = inputs.pools["timed"][:count]
    for read in reads:
        mendel.query(read.record, inputs.params)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = [mendel.query(read.record, inputs.params) for read in reads]
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    routes = sum(len(report.routes) for report in kept) / len(kept)
    print(f"{workload} seed {seed}: {(after - before) / len(kept) / 1e3:.2f} KB "
          f"a report ({len(kept)} kept, {routes:.1f} routes a report)")


if __name__ == "__main__":
    main()
