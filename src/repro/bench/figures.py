"""Experiment runners — one per figure of the paper's evaluation — and
:data:`FIGURES`, the table that declares each figure once: its runner, the
paper's claim and the named shape checks.

Every runner is scale-parameterised: the pytest benchmarks call them with
laptop-size workloads (the *shape* of each figure is what is being
reproduced, not the testbed's absolute numbers), while the examples and
EXPERIMENTS.md use larger settings.  Each returns an
:class:`ExperimentResult` whose ``rows`` are exactly the series the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Callable, Mapping

import numpy as np

from repro.bench.harness import growth_ratio, speedup
from repro.bench.workloads import (
    FamilySpec,
    generate_family_database,
    generate_read_queries,
    sensitivity_groups,
)
from repro.blast.engine import BlastConfig, BlastEngine
from repro.cluster.hashring import FlatHash
from repro.core.framework import Mendel
from repro.core.params import MendelConfig, QueryParams


@dataclass
class ExperimentResult:
    """Rows of one reproduced figure plus run metadata."""

    name: str
    rows: list[dict[str, Any]]
    meta: dict[str, Any] = field(default_factory=dict)

    def series(self, key: str) -> list[float]:
        return [float(row[key]) for row in self.rows]

    def checks(self) -> dict[str, bool]:
        """Named verdicts of the figure this result reproduces, the
        :data:`FIGURES` entry keyed by its name's first word
        (``fig5-load-balance`` -> ``fig5``); none for any other name.
        ``repro bench <fig>`` exits non-zero unless every one holds."""
        figure = FIGURES.get(self.name.split("-", 1)[0])
        if figure is None:
            return {}
        return {name: bool(check(self)) for name, check in figure.checks.items()}


# ---------------------------------------------------------------------------
# Fig. 5 — load distribution: flat SHA-1 vs the two-tier vp-prefix LSH
# ---------------------------------------------------------------------------

def run_fig5_load_balance(
    spec: FamilySpec = FamilySpec(families=40, members_per_family=5, length=150),
    config: MendelConfig = MendelConfig(
        group_count=10, group_size=5, prefix_depth=8, sample_size=4096,
        prefix_bucket_capacity=2,
    ),
    seed: int = 7,
) -> ExperimentResult:
    """Per-node percentage of stored data under (a) a standard flat SHA-1
    hash over all nodes and (b) Mendel's hierarchical two-tier scheme."""
    database = generate_family_database(spec, rng=seed)
    mendel = Mendel.build(database, config)
    store = mendel.index.store

    node_ids = [node.node_id for node in mendel.index.topology.nodes]
    flat = FlatHash(tuple(node_ids))
    flat_counts = {node_id: 0 for node_id in node_ids}
    for block in store.blocks:
        flat_counts[flat.assign(store.block_key(block.block_id))] += 1
    total = max(1, len(store))

    mendel_fractions = mendel.load_fractions()
    rows = [
        {
            "node": node_id,
            "flat_pct": 100.0 * flat_counts[node_id] / total,
            "mendel_pct": 100.0 * mendel_fractions[node_id],
        }
        for node_id in node_ids
    ]
    flat_pcts = [row["flat_pct"] for row in rows]
    mendel_pcts = [row["mendel_pct"] for row in rows]
    meta = {
        "blocks": len(store),
        "nodes": len(node_ids),
        "flat_spread_pct": max(flat_pcts) - min(flat_pcts),
        "mendel_spread_pct": max(mendel_pcts) - min(mendel_pcts),
    }
    return ExperimentResult(name="fig5-load-balance", rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Fig. 6a — turnaround vs query length (Mendel vs BLAST)
# ---------------------------------------------------------------------------

def run_fig6a_query_length(
    lengths: tuple[int, ...] = (500, 1000, 1500, 2000, 2500, 3000),
    queries_per_length: int = 1,
    spec: FamilySpec = FamilySpec(families=60, members_per_family=5, length=250),
    config: MendelConfig = MendelConfig(group_count=10, group_size=5),
    params: QueryParams = QueryParams(k=8, n=6, i=0.9),
    seed: int = 11,
) -> ExperimentResult:
    """Average turnaround per query length, s_aureus-style reads over an
    nr-like database."""
    database = generate_family_database(spec, rng=seed)
    mendel = Mendel.build(database, config)
    blast = BlastEngine(database)

    rows = []
    for length in lengths:
        queries = generate_read_queries(
            database, queries_per_length, length, rng=seed + length,
            id_prefix=f"saureus-{length}",
        )
        mendel_times = [mendel.query(q, params).stats.turnaround for q in queries]
        blast_times = [blast.search(q).turnaround for q in queries]
        rows.append(
            {
                "query_length": length,
                "mendel_ms": 1e3 * float(np.mean(mendel_times)),
                "blast_ms": 1e3 * float(np.mean(blast_times)),
            }
        )
    return ExperimentResult(
        name="fig6a-query-length",
        rows=rows,
        meta={"db_residues": database.total_residues, "nodes": mendel.node_count},
    )


# ---------------------------------------------------------------------------
# Fig. 6b — turnaround vs database size (fixed 1000-residue queries)
# ---------------------------------------------------------------------------

def run_fig6b_db_size(
    family_counts: tuple[int, ...] = (15, 30, 60, 120),
    queries: int = 1,
    query_length: int = 1000,
    members_per_family: int = 5,
    seq_length: int = 250,
    config: MendelConfig = MendelConfig(group_count=10, group_size=5),
    params: QueryParams = QueryParams(k=8, n=6, i=0.9),
    blast_memory_residues: int | None = 40_000,
    seed: int = 13,
) -> ExperimentResult:
    """Average turnaround as the database grows (queries fixed at 1000
    residues, the paper's protocol)."""
    rows = []
    for families in family_counts:
        spec = FamilySpec(
            families=families,
            members_per_family=members_per_family,
            length=seq_length,
        )
        database = generate_family_database(spec, rng=seed)
        mendel = Mendel.build(database, config)
        blast = BlastEngine(
            database,
            BlastConfig(memory_capacity_residues=blast_memory_residues),
        )
        query_set = generate_read_queries(
            database, queries, query_length, rng=seed + families,
            id_prefix=f"q{families}",
        )
        mendel_times = [mendel.query(q, params).stats.turnaround for q in query_set]
        blast_times = [blast.search(q).turnaround for q in query_set]
        rows.append(
            {
                "db_residues": database.total_residues,
                "mendel_ms": 1e3 * float(np.mean(mendel_times)),
                "blast_ms": 1e3 * float(np.mean(blast_times)),
            }
        )
    return ExperimentResult(name="fig6b-db-size", rows=rows, meta={})


# ---------------------------------------------------------------------------
# Fig. 6c — scalability: turnaround vs cluster size
# ---------------------------------------------------------------------------

def run_fig6c_scalability(
    group_counts: tuple[int, ...] = (1, 2, 4, 10),
    group_size: int = 5,
    spec: FamilySpec = FamilySpec(families=40, members_per_family=5, length=250),
    queries: int = 2,
    query_length: int = 600,
    params: QueryParams = QueryParams(k=8, n=6, i=0.7),
    seed: int = 17,
) -> ExperimentResult:
    """Average turnaround of an e_coli-style query set while the same
    database is indexed over clusters of growing size."""
    database = generate_family_database(spec, rng=seed)
    query_set = generate_read_queries(
        database, queries, query_length, rng=seed + 1, id_prefix="ecoli"
    )
    rows = []
    for group_count in group_counts:
        config = MendelConfig(group_count=group_count, group_size=group_size)
        mendel = Mendel.build(database, config)
        times = [mendel.query(q, params).stats.turnaround for q in query_set]
        rows.append(
            {
                "nodes": group_count * group_size,
                "mendel_ms": 1e3 * float(np.mean(times)),
            }
        )
    return ExperimentResult(
        name="fig6c-scalability",
        rows=rows,
        meta={"db_residues": database.total_residues},
    )


# ---------------------------------------------------------------------------
# Fig. 6d — sensitivity vs similarity level (Mendel vs BLAST)
# ---------------------------------------------------------------------------

def run_fig6d_sensitivity(
    levels: tuple[float, ...] = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2),
    group_size: int = 4,
    target_length: int = 1000,
    background_families: int = 10,
    config: MendelConfig = MendelConfig(group_count=4, group_size=3),
    params: QueryParams = QueryParams(k=8, n=8, i=0.3, c=0.3),
    seed: int = 19,
) -> ExperimentResult:
    """Percentage of mutated copies (per similarity level) whose alignment
    back to the generated target is found, Mendel vs BLAST."""
    target, groups = sensitivity_groups(
        levels=levels,
        group_size=group_size,
        target_length=target_length,
        rng=seed,
    )
    database = generate_family_database(
        FamilySpec(families=background_families, members_per_family=3, length=300),
        rng=seed + 1,
    )
    database.add(target)

    mendel = Mendel.build(database, config)
    blast = BlastEngine(database)

    rows = []
    for level in levels:
        mutants = groups[level]
        mendel_found = sum(
            1
            for mutant in mutants
            if any(
                a.subject_id == target.seq_id
                for a in mendel.query(mutant, params).alignments
            )
        )
        blast_found = sum(
            1
            for mutant in mutants
            if any(
                a.subject_id == target.seq_id
                for a in blast.search(mutant).alignments
            )
        )
        rows.append(
            {
                "identity_pct": 100.0 * level,
                "mendel_found_pct": 100.0 * mendel_found / len(mutants),
                "blast_found_pct": 100.0 * blast_found / len(mutants),
            }
        )
    return ExperimentResult(
        name="fig6d-sensitivity",
        rows=rows,
        meta={"target_length": target_length, "mutants_per_level": group_size},
    )


# ---------------------------------------------------------------------------
# The figure table — each figure's runner, paper claim and shape checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One figure of the paper's evaluation, declared once: ``repro bench
    <key>``, ``repro bench all`` and ``benchmarks/test_fig*.py`` all read
    it.  Each check names one shape claim (who wins, by what factor) and
    holds at the benchmarks' thresholds; ``summary`` is the one-line
    measure the full report prints."""

    title: str
    claim: str
    run: Callable[..., ExperimentResult]
    checks: Mapping[str, Callable[[ExperimentResult], bool]]
    summary: Callable[[ExperimentResult], str]


def _node_groups(result: ExperimentResult) -> list[list[float]]:
    """Fig. 5's per-node Mendel shares, one list per storage group."""
    by_group: dict[str, list[float]] = {}
    for row in result.rows:
        by_group.setdefault(row["node"].split(".")[0], []).append(row["mendel_pct"])
    return list(by_group.values())


def _slope(result: ExperimentResult, key: str) -> float:
    """First-to-last ms per residue of a Fig. 6a series."""
    lengths = result.series("query_length")
    ys = result.series(key)
    return (ys[-1] - ys[0]) / (lengths[-1] - lengths[0])


def _mean_speedup(result: ExperimentResult) -> float:
    ratios = [row["blast_ms"] / row["mendel_ms"] for row in result.rows]
    return sum(ratios) / len(ratios)


def _growth(result: ExperimentResult, key: str) -> float:
    return growth_ratio(result.series("db_residues"), result.series(key))


FIGURES: dict[str, Figure] = {
    "fig5": Figure(
        title="Fig. 5 — load distribution",
        claim="flat SHA-1 balances near-perfectly; the two-tier scheme stays "
        "within a small node-to-node spread with visible group clustering",
        run=run_fig5_load_balance,
        checks={
            "flat_hash_balances_tightly":
                lambda r: r.meta["flat_spread_pct"] < 1.0,
            # Paper: "the difference between single nodes never exceeds 1%
            # of the total data volume".
            "mendel_spread_bounded":
                lambda r: r.meta["mendel_spread_pct"] < 1.0,
            # The documented trade-off: similarity grouping costs balance.
            "mendel_less_uniform_than_flat":
                lambda r: r.meta["mendel_spread_pct"] >= r.meta["flat_spread_pct"],
            # Tier-2 is plain SHA-1 within a group: "load balancing within
            # groups will be near optimal".
            "intra_group_balance_near_flat": lambda r: all(
                (max(shares) - min(shares)) / max(shares) < 0.35
                for shares in _node_groups(r) if sum(shares)
            ),
            # The group structure shows: group means vary more than nodes
            # within a group do.
            "group_clustering_visible": lambda r: np.var(
                [np.mean(shares) for shares in _node_groups(r)]
            ) > np.mean([np.var(shares) for shares in _node_groups(r)]),
        },
        summary=lambda r: (
            f"flat spread {r.meta['flat_spread_pct']:.2f}% vs mendel "
            f"{r.meta['mendel_spread_pct']:.2f}% over {r.meta['nodes']} nodes"
        ),
    ),
    "fig6a": Figure(
        title="Fig. 6a — turnaround vs query length",
        claim="query length has little effect on Mendel; BLAST grows with length",
        run=run_fig6a_query_length,
        checks={
            "mendel_wins_at_every_length": lambda r: all(
                row["mendel_ms"] < row["blast_ms"] for row in r.rows
            ),
            # On BLAST's axes Mendel's curve reads as near-flat.
            "mendel_slope_flat_relative_to_blast":
                lambda r: _slope(r, "mendel_ms") < 0.2 * _slope(r, "blast_ms"),
            "speed_advantage_factor": lambda r: _mean_speedup(r) > 3.0,
        },
        summary=lambda r: (
            f"slopes {_slope(r, 'mendel_ms'):.3f} vs {_slope(r, 'blast_ms'):.3f} "
            f"ms/residue; mean speedup {_mean_speedup(r):.1f}x"
        ),
    ),
    "fig6b": Figure(
        title="Fig. 6b — turnaround vs database size",
        claim="Mendel nearly constant; BLAST halts once the database outgrows "
        "memory",
        run=run_fig6b_db_size,
        checks={
            # 1.0 would be linear growth; "nearly constant" is a small fraction.
            "mendel_nearly_constant": lambda r: _growth(r, "mendel_ms") < 0.25,
            # Past its memory capacity BLAST degrades super-linearly.
            "blast_hits_the_memory_wall": lambda r: (
                _growth(r, "blast_ms") > 2.0
                and r.rows[-1]["blast_ms"] / r.rows[0]["blast_ms"] > 20.0
            ),
            "mendel_wins_decisively_at_scale":
                lambda r: r.rows[-1]["blast_ms"] / r.rows[-1]["mendel_ms"] > 50.0,
        },
        summary=lambda r: (
            f"growth ratios: mendel {_growth(r, 'mendel_ms'):.2f}, "
            f"blast {_growth(r, 'blast_ms'):.1f} (1.0 = linear)"
        ),
    ),
    "fig6c": Figure(
        title="Fig. 6c — scalability",
        claim="turnaround falls as nodes are added",
        run=run_fig6c_scalability,
        checks={
            "monotone_decrease": lambda r: all(
                b < a for a, b in pairwise(r.series("mendel_ms"))
            ),
            # The partitioned search space plus added parallelism: at least
            # ~5x from 5 to 50 nodes.
            "substantial_speedup": lambda r: speedup(r.series("mendel_ms")) > 5.0,
        },
        summary=lambda r: f"speedup first->last: {speedup(r.series('mendel_ms')):.1f}x",
    ),
    "fig6d": Figure(
        title="Fig. 6d — sensitivity",
        claim="the NNS finds lower-similarity matches better than BLAST",
        run=run_fig6d_sensitivity,
        checks={
            "both_perfect_at_high_identity": lambda r: (
                r.rows[0]["mendel_found_pct"] == 100.0
                and r.rows[0]["blast_found_pct"] == 100.0
            ),
            # Weak monotonicity: the low-identity tail cannot beat the top.
            "recall_decays_with_identity": lambda r: (
                min(r.series("mendel_found_pct")[:3])
                >= max(r.series("mendel_found_pct")[-2:])
            ),
            # In aggregate and in the paper's low-similarity region.
            "mendel_at_least_as_sensitive_as_blast": lambda r: (
                sum(r.series("mendel_found_pct")) >= sum(r.series("blast_found_pct"))
                and sum(r.series("mendel_found_pct")[-4:])
                >= sum(r.series("blast_found_pct")[-4:])
            ),
        },
        summary=lambda r: (
            f"aggregate recall: mendel {sum(r.series('mendel_found_pct')):.0f} vs "
            f"blast {sum(r.series('blast_found_pct')):.0f} (pct-points)"
        ),
    ),
}
