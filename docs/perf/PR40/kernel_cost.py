"""The k-NN distance pass alone, per (window, row) pair, on node searches
captured from a perfbench workload.

    python kernel_cost.py capture TREE WORKLOAD OUT.npz   # TREE: a checkout
    python kernel_cost.py time TREE CAPTURES.npz [CAPTURES.npz ...]

``capture`` runs TREE's ``perfbench/run.py --workload WORKLOAD --seconds 2``
with ``repro.vptree.search._fill`` wrapped to keep a copy of the first 300
all-RAM node searches: each one's ``(W, L)`` windows and ``(N, L)`` rows.
``time`` refills every capture with TREE's own ``_fill`` (best of five a
capture, the node's metric behind a fresh ``MetricAdapter``) and prints the
total divided by the sum of ``W x N``, with the captures' shapes.
"""

from __future__ import annotations

import runpy
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np


def use(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree)]


def capture(tree: Path, workload: str, out: Path) -> None:
    use(tree)
    from repro.vptree import search

    kept: list[np.ndarray] = []
    fill = search._fill

    def keeping(dists, queries, node_tree):
        if len(kept) < 600 and isinstance(node_tree.points, np.ndarray):
            kept.extend((queries.copy(), np.array(node_tree.points)))
        return fill(dists, queries, node_tree)

    search._fill = keeping
    sys.argv = ["run.py", "--workload", workload, "--seconds", "2"]
    try:
        runpy.run_path(str(tree / "perfbench" / "run.py"), run_name="__main__")
    except SystemExit:
        pass
    np.savez(out, *kept)


def time_fill(tree: Path, paths: list[Path]) -> None:
    use(tree)
    from repro.seq import PROTEIN, default_distance
    from repro.vptree import search
    from repro.vptree.metric import MetricAdapter

    for path in paths:
        arrays = np.load(path)
        kept = [arrays[f"arr_{i}"] for i in range(len(arrays.files))]
        searches = list(zip(kept[::2], kept[1::2]))
        total = 0.0
        for queries, points in searches:
            node = types.SimpleNamespace(
                points=points, adapter=MetricAdapter(default_distance(PROTEIN))
            )
            dists = np.empty((len(queries), len(points)))
            best = float("inf")
            for _ in range(5):
                start = perf_counter()
                search._fill(dists, queries, node)
                best = min(best, perf_counter() - start)
            total += best
        pairs = sum(len(q) * len(p) for q, p in searches)
        widths = sorted(len(q) for q, _ in searches)
        rows = sorted(len(p) for _, p in searches)
        print(f"{path.name}: {len(searches)} searches, W {widths[0]}-{widths[-1]} "
              f"(median {widths[len(widths) // 2]}), N {rows[0]}-{rows[-1]}, "
              f"L {searches[0][0].shape[1]}: {total / len(searches) * 1e6:.0f} us "
              f"a search, {total / pairs * 1e9:.2f} ns a pair")


if __name__ == "__main__":
    command, tree, *rest = sys.argv[1:]
    if command == "capture":
        capture(Path(tree).resolve(), rest[0], Path(rest[1]))
    else:
        time_fill(Path(tree).resolve(), [Path(path) for path in rest])
