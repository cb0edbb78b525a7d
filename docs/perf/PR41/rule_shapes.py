"""Both node searches across window shapes and node sizes.

    PYTHONPATH=src python docs/perf/PR41/rule_shapes.py

For each (alphabet, w, i): m = ``max_mismatches(w, i)``, the shortest part
p_min = w // (m + 1), its bits p_min * log2|S| and the rule's selectivity
bits (those minus log2(m + 1)).  One node of uniform random rows (2,000,
10,000, 30,000), 16 and 64 windows copied from its rows with up to m + 1
positions redrawn; prints part path / vp-tree ratios of CPU (best of three)
and modelled charge, and the rows each scored.

Runs on the tree of commit 6ce4294, where the rule was
``repro.cluster.node.parts_selective`` and ``StorageNode.local_knn`` took
``mismatches``/``letters`` and chose the path itself.  Later trees make
the decision once a run, in ``repro.core.query.parts_selective``, and a
node's part-path search needs the block ids the route names.
"""
import math
import time
import numpy as np
import repro.cluster.node as node_module
from repro.cluster.node import StorageNode
from repro.core.anchors import max_mismatches
from repro.seq.alphabet import PROTEIN, DNA
from repro.seq.distance import default_distance

def run(node, windows, m, letters, R, forced):
    node_module.parts_selective = lambda *a: forced
    best = 1e9
    for _ in range(3):
        t = time.perf_counter()
        s, r = node.local_knn(windows, 6, R, mismatches=m, letters=letters)
        best = min(best, time.perf_counter() - t)
    return best, s.seconds + sum(c.seconds for _, c in s), sum(c.evals for _, c in s)

shapes = [(PROTEIN, 8, 0.8), (PROTEIN, 8, 0.7), (PROTEIN, 8, 0.5), (PROTEIN, 16, 0.7), (PROTEIN, 16, 0.6),
          (PROTEIN, 32, 0.8), (PROTEIN, 32, 0.6), (DNA, 32, 0.8), (DNA, 16, 0.8), (DNA, 16, 0.7), (DNA, 8, 0.7), (DNA, 8, 0.8)]
print("alphabet w i m p_min bits sel_bits N W | cpu parts/vptree | charge parts/vptree | evals parts/vptree")
for alphabet, w, i in shapes:
    letters = alphabet.canonical_size
    metric = default_distance(alphabet)
    m = max_mismatches(w, i)
    p = w // (m + 1)
    bits = p * math.log2(letters)
    sel = bits - math.log2(m + 1)
    R = m * float(getattr(metric, "matrix", np.ones(1)).max())
    for N in (2000, 10000, 30000):
        rng = np.random.default_rng(N + w)
        codes = rng.integers(0, letters, (N, w)).astype(np.uint8)
        node = StorageNode("n", "g", lambda: default_distance(alphabet), segment_length=w, bucket_capacity=512, rng_seed=1)
        node.store_blocks(codes, list(range(N)))
        for W in (16, 64):
            windows = codes[rng.integers(0, N, W)].copy()
            for win in windows:
                spots = rng.permutation(w)[:rng.integers(0, m + 2)]
                win[spots] = rng.integers(0, letters, spots.size)
            a = run(node, windows, m, letters, R, True)
            b = run(node, windows, m, letters, R, False)
            print(f"{alphabet.name if hasattr(alphabet,'name') else letters} w{w} i{i} m{m} p{p} {bits:.1f} {sel:.1f} N{N} W{W} | {a[0]/b[0]:.3f} ({a[0]*1e3:.1f}/{b[0]*1e3:.1f} ms) | {a[1]/b[1]:.3f} | {a[2]}/{b[2]}", flush=True)
