"""The ``cold_vs_warm_query`` scenario: the tier's proof-of-claims run.

One function, :func:`run_tier_scenario`, drives the whole tiered-storage
story end to end on a fixed-seed synthetic corpus; its result is shared by
the ``repro tier`` CLI command and the ``cold_vs_warm_query`` regression
workload:

1. **warm** — build a family database deployment and run the fig6a-style
   query sweep all-RAM (the baseline signatures and simulated latencies);
2. **cold** — spill every node to its compressed block file with a shared
   RAM cache capped at a fraction of the raw corpus (default 10%), re-run
   the sweep, and require *byte-identical* alignments and identical
   pipeline counters — only simulated turnaround may differ (cold reads
   charge seek + transfer time);
3. **warm2** — repeat one sweep query against the now-populated cache
   (residency check, same equivalence requirement);
4. **capacity** — re-spill with large pages and a cache at 0.1% of the
   corpus, measure ``capacity_x``: how many times the current corpus
   would fit in the RAM the tier actually holds resident
   (``raw / (pinned + cache budget)``), and require one more equivalent
   query.  ``capacity_x >= 100`` is the 100x-scale claim;
5. **unspill** — fold everything back to RAM and verify equivalence one
   final time (the round trip loses nothing).

The capacity denominator counts what scales with the corpus: permanently
pinned vantage pages and the cache byte budget.  Per-query scratch (the one
block of decoded pages being scored and the windows x rows distance matrix,
which the all-RAM search holds too) and the row->page maps are excluded — the maps
are tree-structure overhead present in both deployments, and scratch is
bounded per query, not per corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.regress import COUNT_TOLERANCE, SIM_TOLERANCE, Metric
from repro.bench.workloads import FamilySpec
from repro.core.framework import Mendel
from repro.scenario import (
    SWEEP_LENGTHS,
    SWEEP_PARAMS,
    answer_signature,
    build_deployment,
    sweep_queries,
)
from repro.tier.store import TierConfig

#: capacity-phase cache budget as a fraction of the raw corpus (0.1% — the
#: configuration the 100x claim is measured under)
CAPACITY_CACHE_FRACTION = 0.001


def _run_sweep(mendel: Mendel, queries: list) -> dict:
    """One pass over the sweep queries: per-query sim turnaround (ms),
    signatures, and summed pipeline counters."""
    reports = [mendel.query(q, SWEEP_PARAMS) for q in queries]
    return {
        "sim_turnaround_ms": [1e3 * r.stats.turnaround for r in reports],
        # What tiering promises to keep byte-identical: the ranked
        # alignments *and* the deterministic pipeline counters.
        "signatures": [answer_signature(r, counters=True) for r in reports],
        "distance_evals": sum(r.stats.node_evals for r in reports),
        "candidate_hits": sum(r.stats.candidate_hits for r in reports),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


@dataclass
class TierScenarioResult:
    """Outcome of one cold-vs-warm run: the report dict (every number in
    it is sim-clock or counter data, so it is byte-identical per seed)."""

    report: dict

    def frame(self) -> dict:
        return self.report

    def summary_rows(self) -> list[tuple[str, str]]:
        report = self.report
        tier, cold, cap = report["tier"], report["cold"], report["capacity"]
        cache = cold["cache"]
        return [
            ("blocks", f"{report['blocks']}"),
            ("nodes", f"{report['nodes']}"),
            ("raw bytes", f"{report['raw_bytes']}"),
            ("bytes on disk", f"{tier['bytes_on_disk']}"),
            ("compression", f"{tier['compression_ratio']:.3f}x"),
            ("resident", f"{100 * tier['resident_fraction']:.2f}%"),
            ("cold cache", f"{cold['cache_bytes']} bytes "
                           f"(hits {cache['hits']:.0f} / misses "
                           f"{cache['misses']:.0f} / evictions "
                           f"{cache['evictions']:.0f})"),
            ("warm sim ms", " / ".join(
                f"{v:.1f}" for v in report["warm"]["sim_turnaround_ms"])),
            ("cold sim ms", " / ".join(
                f"{v:.1f}" for v in cold["sim_turnaround_ms"])),
            ("warm2 sim ms", f"{report['warm2_sim_turnaround_ms']:.1f}"),
            ("capacity_x", f"{cap['capacity_x']:.1f} "
                           f"(cache {cap['cache_bytes']} B, "
                           f"pinned {cap['pinned_bytes']} B)"),
            ("equivalent", str(report["equivalent"])),
        ]

    def checks(self) -> dict[str, bool]:
        """What ``repro tier --assert-equivalent`` demands: every tiered
        phase answers like the all-RAM baseline, and the tier really was
        exercised (it compresses, cold reads cost simulated time, the
        cache both hit and missed)."""
        report = self.report
        cache = report["cold"]["cache"]
        checks = {
            f"{phase} == all-RAM baseline": ok
            for phase, ok in report["phases_equal"].items()
        }
        checks["codec compresses"] = report["tier"]["compression_ratio"] > 1.0
        checks["cold queries pay for their reads"] = all(
            c > w for w, c in zip(report["warm"]["sim_turnaround_ms"],
                                  report["cold"]["sim_turnaround_ms"])
        )
        checks["cache hit and missed"] = (
            cache["hits"] > 0 and cache["misses"] > 0
        )
        return checks

    def bench_metrics(self) -> dict[str, dict[str, Metric]]:
        """The ``cold_vs_warm_query`` workload of ``repro bench --regress``
        and ``repro tier --bench-out``."""
        report = self.report
        return {
            "cold_vs_warm_query": {
                "sim_turnaround_warm_ms": Metric(
                    _mean(report["warm"]["sim_turnaround_ms"]),
                    "ms", "lower", SIM_TOLERANCE,
                ),
                "sim_turnaround_cold_ms": Metric(
                    _mean(report["cold"]["sim_turnaround_ms"]),
                    "ms", "lower", SIM_TOLERANCE,
                ),
                "distance_evals": Metric(
                    report["counters"]["distance_evals"],
                    "evals", "stable", COUNT_TOLERANCE,
                ),
                "result_equivalent": Metric(
                    1.0 if report["equivalent"] else 0.0, "bool", "stable", 0.0
                ),
                "bytes_on_disk": Metric(
                    report["tier"]["bytes_on_disk"], "bytes", "stable", 0.02
                ),
                "compression_ratio": Metric(
                    report["tier"]["compression_ratio"], "x", "higher", 0.1
                ),
                "capacity_x": Metric(
                    report["capacity"]["capacity_x"], "x", "higher", 0.05
                ),
            }
        }


def run_tier_scenario(
    seed: int = 23,
    families: int = 30,
    members_per_family: int = 5,
    cache_fraction: float = 0.10,
) -> TierScenarioResult:
    """Run the full cold-vs-warm scenario.

    *cache_fraction* bounds the cold-phase RAM cache relative to the raw
    corpus bytes (the acceptance bar is <= 10%).
    """
    mendel = build_deployment(
        seed,
        FamilySpec(families=families, members_per_family=members_per_family,
                   length=300),
        group_count=2,
        group_size=2,
        bucket_capacity=512,
        segment_length=32,
    )
    database = mendel.index.database
    queries = sweep_queries(mendel, seed)

    # Raw corpus bytes actually resident before any spill: every alive
    # node's code matrix (replication included — that is what RAM holds).
    raw_bytes = sum(
        int(np.asarray(node.tree.points).nbytes)
        for node in mendel.index.topology.nodes
        if node.alive
    )

    # -- phase 1: warm (all-RAM baseline) --------------------------------------
    warm = _run_sweep(mendel, queries)

    # -- phase 2: cold (spilled, bounded cache) --------------------------------
    cold_config = TierConfig(
        page_rows=256, alphabet_size=database.alphabet.size
    )
    cold_cache_bytes = max(1, int(cache_fraction * raw_bytes))
    cache = mendel.spill(cache_bytes=cold_cache_bytes, config=cold_config)
    cold = _run_sweep(mendel, queries)
    counts = cache.stats()
    cold["cache"] = {
        key: counts[key] for key in ("hits", "misses", "evictions", "bypasses")
    }
    tier = mendel.tier_report()

    # -- phase 3: warm2 (cache residency re-check, one query) ------------------
    warm2 = _run_sweep(mendel, queries[:1])

    # -- phase 4: capacity (large pages, 0.1% cache) ---------------------------
    capacity_config = TierConfig(
        page_rows=2048, alphabet_size=database.alphabet.size
    )
    capacity_cache_bytes = max(
        1, int(CAPACITY_CACHE_FRACTION * raw_bytes)
    )
    mendel.spill(cache_bytes=capacity_cache_bytes, config=capacity_config)
    cap_tier = mendel.tier_report()
    resident_budget = cap_tier["pinned_bytes"] + capacity_cache_bytes
    capacity_x = raw_bytes / max(resident_budget, 1)
    capacity = _run_sweep(mendel, queries[:1])

    # -- phase 5: unspill (round trip loses nothing) ---------------------------
    mendel.unspill()
    unspilled = _run_sweep(mendel, queries[:1])

    phases_equal = {
        "cold": cold["signatures"] == warm["signatures"],
        "warm2": warm2["signatures"] == warm["signatures"][:1],
        "capacity": capacity["signatures"] == warm["signatures"][:1],
        "unspilled": unspilled["signatures"] == warm["signatures"][:1],
    }
    return TierScenarioResult({
        "seed": seed,
        "families": families,
        "members_per_family": members_per_family,
        "sweep_lengths": list(SWEEP_LENGTHS),
        "blocks": mendel.block_count,
        "nodes": mendel.node_count,
        "raw_bytes": raw_bytes,
        "warm": {"sim_turnaround_ms": warm["sim_turnaround_ms"]},
        "cold": {
            "sim_turnaround_ms": cold["sim_turnaround_ms"],
            "cache_bytes": cold_cache_bytes,
            "cache": cold["cache"],
        },
        "warm2_sim_turnaround_ms": warm2["sim_turnaround_ms"][0],
        "tier": {
            "bytes_on_disk": tier["bytes_on_disk"],
            "compression_ratio": tier["compression_ratio"],
            "resident_fraction": tier["resident_fraction"],
            "pages": tier["pages"],
            "pinned_bytes": tier["pinned_bytes"],
        },
        "capacity": {
            "cache_bytes": capacity_cache_bytes,
            "pinned_bytes": cap_tier["pinned_bytes"],
            "resident_budget": resident_budget,
            "capacity_x": capacity_x,
            "compression_ratio": cap_tier["compression_ratio"],
            "sim_turnaround_ms": capacity["sim_turnaround_ms"][0],
        },
        "counters": {
            "distance_evals": warm["distance_evals"],
            "candidate_hits": warm["candidate_hits"],
        },
        "phases_equal": phases_equal,
        "equivalent": all(phases_equal.values()),
    })
