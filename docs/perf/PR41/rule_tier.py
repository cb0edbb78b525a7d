"""Both node searches on the ``cold_vs_warm_query`` deployment (seed 23).

    PYTHONPATH=src python docs/perf/PR41/rule_tier.py

Every node-subquery of the sweep, all-RAM and then spilled behind a cache of
10 % of the raw codes, is run on the part path and on the vp-tree path
(best CPU of three each) and answered from the rule's own choice; prints
CPU and modelled charge (search seconds plus cold reads) by node size.
"""
import time
import numpy as np
import repro.cluster.node as node_module
from repro.cluster.node import StorageNode
from repro.scenario import SWEEP_PARAMS, build_deployment, sweep_queries
from repro.bench.workloads import FamilySpec
from repro.tier.store import TierConfig

original = StorageNode.local_knn
records = []
rule = node_module.parts_selective

def both(self, windows, k, max_radius=float("inf"), mismatches=None, letters=None):
    out = {}
    for path, forced in (("parts", True), ("vptree", False)):
        node_module.parts_selective = lambda *a, _f=forced: _f
        best, charge = 1e9, None
        for _ in range(3):
            t = time.perf_counter()
            searches, reads = original(self, windows, k, max_radius, mismatches, letters)
            best = min(best, time.perf_counter() - t)
        charge = searches.seconds + sum(c.seconds for _, c in searches) + reads.seconds
        out[path] = (best, charge, sum(c.evals for _, c in searches))
    node_module.parts_selective = rule
    records.append({"rows": len(self.tree), "windows": len(windows),
                    **{f"{p}_{f}": v for p in out for f, v in zip(("cpu", "charge", "evals"), out[p])}})
    return original(self, windows, k, max_radius, mismatches, letters)

mendel = build_deployment(23, FamilySpec(families=30, members_per_family=5, length=300),
                          group_count=2, group_size=2, bucket_capacity=512, segment_length=32)
queries = sweep_queries(mendel, 23)
StorageNode.local_knn = both
for q in queries:
    mendel.query(q, SWEEP_PARAMS)
raw = sum(int(np.asarray(n.tree.points).nbytes) for n in mendel.index.topology.nodes)
warm = len(records)
mendel.spill(cache_bytes=int(0.1 * raw), config=TierConfig(page_rows=256, alphabet_size=mendel.index.database.alphabet.size))
for q in queries:
    mendel.query(q, SWEEP_PARAMS)
for i, r in enumerate(records):
    r["phase"] = "warm" if i < warm else "cold"
for phase in ("warm", "cold"):
    rs = [r for r in records if r["phase"] == phase]
    for lo, hi in ((0, 10000), (10000, 10**9)):
        sub = [r for r in rs if lo <= r["rows"] < hi]
        if not sub: continue
        f = lambda key: sum(r[key] for r in sub)
        print(f"{phase} rows[{lo},{hi}) calls={len(sub)} rows={min(r['rows'] for r in sub)}-{max(r['rows'] for r in sub)} windows={min(r['windows'] for r in sub)}-{max(r['windows'] for r in sub)}"
              f" cpu parts {f('parts_cpu')*1e3:.1f} ms vptree {f('vptree_cpu')*1e3:.1f} ms ({f('parts_cpu')/f('vptree_cpu'):.3f}x);"
              f" charge parts {f('parts_charge')*1e3:.1f} ms vptree {f('vptree_charge')*1e3:.1f} ms ({f('parts_charge')/f('vptree_charge'):.3f}x);"
              f" evals {f('parts_evals')} vs {f('vptree_evals')}; parts faster in {sum(r['parts_cpu'] < r['vptree_cpu'] for r in sub)}/{len(sub)}, cheaper charge in {sum(r['parts_charge'] < r['vptree_charge'] for r in sub)}/{len(sub)}")
