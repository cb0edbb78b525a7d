"""Time building the part-key directory of a workload's deployment on one
checkout: every group's keys (and, with named candidates, their block ids)
for the workload's part count, rebuilt from empty, best of five, raw
seconds on whatever machine runs it.

    python directory_build.py <checkout> <workload> <seed>
"""

import sys
import time


def main(checkout: str, workload: str, seed: int) -> None:
    sys.path[:0] = [f"{checkout}/src", checkout]
    from perfbench.workloads import make_inputs
    from repro import Mendel
    from repro.core.anchors import max_mismatches

    inputs = make_inputs(workload, seed, 20.0)
    mendel = Mendel.build(inputs.database, inputs.config)
    index = mendel.index
    directory = index.part_directory
    parts = max_mismatches(index.segment_length, inputs.params.i) + 1
    best = float("inf")
    for _ in range(5):
        directory._keys.clear()
        start = time.perf_counter()
        for group in index.topology.groups:
            directory._group_keys(group.group_id, parts)
        best = min(best, time.perf_counter() - start)
    print(f"{workload}: {mendel.block_count} blocks, "
          f"{len(index.topology.groups)} groups, {parts} parts: "
          f"directory build {1e3 * best:.1f} ms (best of 5, raw)")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
