"""``repro explore``: the scenario-grid driver behind REPORT.md.

The paper's evaluation varies one axis at a time; real deployments live in
the cross product.  This module sweeps a grid of scenario **cells** —

* traffic mix: ``uniform`` / ``zipf`` (hot-key skew) / ``burst``
  (two-thirds of the queries arrive at once);
* workload: ``protein`` family reads / ``dna`` family reads /
  ``translated`` (DNA reads queried frame-by-frame against a protein
  index);
* chaos intensity: ``none`` / ``light`` (one crash + restart) / ``heavy``
  (a crash plus a straggler under per-subquery deadlines);
* storage: ``ram`` / ``tier`` (spilled to compressed block files behind a
  deliberately tiny page cache)

— running every cell on its own freshly built deployment with a seed
derived deterministically from ``(grid seed, cell name)``.  Each cell's
queries are traced with explicit ``explore-<cell>-q<i>`` trace ids, its
slowest queries are clustered into span-shape families
(:mod:`repro.obs.analyze`), and its numbers are emitted twice: a per-cell
BENCH-schema JSON (validated by the :mod:`repro.bench.regress` comparator)
and one ranked ``REPORT.md`` in which every slow cell is explained by its
dominant trace family and critical-path breakdown.

Everything reported is sim-clock or counter data — no wall-clock values,
no timestamps — so the same ``--seed`` reproduces REPORT.md *byte for
byte* (the acceptance criterion CI's ``explore-smoke`` job checks).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.regress import (
    COUNT_TOLERANCE,
    SIM_TOLERANCE,
    Metric,
    bench_report,
)
from repro.bench.workloads import (
    FamilySpec,
    generate_family_database,
    generate_read_queries,
)
from repro.core.framework import Mendel
from repro.core.params import MendelConfig, QueryParams
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.analyze import (
    cluster_slow_queries,
    critical_path_table,
    query_entry,
)
from repro.obs.trace import TraceContext
from repro.seq.alphabet import DNA
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from repro.seq.records import SequenceSet
from repro.seq.translate import six_frame_translations
from repro.tier.store import TierConfig

SUITE_NAME = "repro-explore"

#: hot-key skew pattern for the zipf mix: position i issues base query
#: ``_ZIPF_PICKS[i % len]`` — ~half the traffic hits query 0.
_ZIPF_PICKS = (0, 0, 1, 0, 2, 0, 1, 3, 0, 2)


@dataclass(frozen=True)
class Cell:
    """One scenario cell: a point in the mix x workload x chaos x storage
    cross product."""

    mix: str        # uniform | zipf | burst
    workload: str   # protein | dna | translated
    chaos: str      # none | light | heavy
    storage: str    # ram | tier

    def __post_init__(self) -> None:
        checks = (
            ("mix", self.mix, ("uniform", "zipf", "burst")),
            ("workload", self.workload, ("protein", "dna", "translated")),
            ("chaos", self.chaos, ("none", "light", "heavy")),
            ("storage", self.storage, ("ram", "tier")),
        )
        for axis, value, allowed in checks:
            if value not in allowed:
                raise ValueError(
                    f"bad {axis} {value!r}; expected one of {allowed}"
                )

    @property
    def name(self) -> str:
        return f"{self.mix}-{self.workload}-{self.chaos}-{self.storage}"


#: Named grids.  ``small`` is the CI smoke grid: a 2x2 over (traffic mix,
#: chaos) at fixed protein workload, with one tiered cell riding along.
GRIDS: dict[str, tuple[Cell, ...]] = {
    "small": (
        Cell("uniform", "protein", "none", "ram"),
        Cell("zipf", "protein", "light", "ram"),
        Cell("uniform", "protein", "heavy", "ram"),
        Cell("burst", "protein", "none", "tier"),
    ),
    "medium": (
        Cell("uniform", "protein", "none", "ram"),
        Cell("zipf", "protein", "light", "ram"),
        Cell("uniform", "protein", "heavy", "ram"),
        Cell("burst", "protein", "none", "tier"),
        Cell("burst", "protein", "light", "ram"),
        Cell("uniform", "dna", "none", "ram"),
        Cell("zipf", "dna", "light", "ram"),
        Cell("uniform", "translated", "none", "ram"),
        Cell("zipf", "protein", "none", "tier"),
    ),
    "full": (
        Cell("uniform", "protein", "none", "ram"),
        Cell("zipf", "protein", "none", "ram"),
        Cell("burst", "protein", "none", "ram"),
        Cell("uniform", "protein", "light", "ram"),
        Cell("zipf", "protein", "light", "ram"),
        Cell("burst", "protein", "heavy", "ram"),
        Cell("uniform", "protein", "heavy", "ram"),
        Cell("uniform", "protein", "none", "tier"),
        Cell("burst", "protein", "none", "tier"),
        Cell("zipf", "protein", "light", "tier"),
        Cell("uniform", "dna", "none", "ram"),
        Cell("zipf", "dna", "light", "ram"),
        Cell("burst", "dna", "none", "tier"),
        Cell("uniform", "translated", "none", "ram"),
        Cell("zipf", "translated", "light", "ram"),
    ),
}


@dataclass
class CellResult:
    """One cell's run: per-query entries, clustered families, metrics."""

    cell: Cell
    seed: int
    cell_seed: int
    entries: list[dict]
    slow_entries: list[dict]
    slow_threshold_ms: float
    families: list[dict]
    critical_path: list[dict]
    bench: dict

    @property
    def name(self) -> str:
        return self.cell.name

    @property
    def mean_turnaround_ms(self) -> float:
        values = [e["turnaround_ms"] for e in self.entries]
        return sum(values) / len(values) if values else 0.0

    @property
    def max_turnaround_ms(self) -> float:
        return max((e["turnaround_ms"] for e in self.entries), default=0.0)

    @property
    def degraded_count(self) -> int:
        return sum(1 for e in self.entries if e["degraded"])

    @property
    def dominant_family(self) -> str:
        return self.families[0]["family"] if self.families else "-"


def cell_seed(cell: Cell, seed: int) -> int:
    """The cell's private seed: stable under grid reordering (derived from
    the cell *name*, not its position) and distinct across grid seeds."""
    return (seed * 1_000_003 + zlib.crc32(cell.name.encode())) % (2**31)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _build_workload(
    cell: Cell, rng_seed: int, query_count: int
) -> tuple[SequenceSet, list, list[str]]:
    """(database, base queries, per-query label suffixes) for the cell."""
    if cell.workload in ("protein", "translated"):
        database = generate_family_database(
            FamilySpec(families=10, members_per_family=4, length=120),
            rng=rng_seed,
        )
    else:  # dna: family structure hand-rolled (the generator is protein-only)
        database = SequenceSet(alphabet=DNA)
        ancestors = random_set(
            count=8, length=150, alphabet=DNA, rng=rng_seed, id_prefix="dfam"
        )
        for fam, ancestor in enumerate(ancestors):
            database.add(ancestor)
            for member in range(1, 4):
                database.add(
                    mutate_to_identity(
                        ancestor,
                        0.9 - 0.08 * member,
                        rng=rng_seed + fam * 7 + member,
                        seq_id=f"dfam-{fam:02d}-m{member}",
                    )
                )
    if cell.workload == "translated":
        reads = random_set(
            count=max(2, query_count // 3),
            length=120,
            alphabet=DNA,
            rng=rng_seed + 1,
            id_prefix="tx",
        )
        queries, labels = [], []
        for i, read in enumerate(reads):
            for j, frame in enumerate(six_frame_translations(read)):
                if len(frame) >= 8:
                    queries.append(frame)
                    labels.append(f"q{i:02d}f{j}")
        return database, queries, labels
    queries = list(
        generate_read_queries(
            database, query_count, length=240, rng=rng_seed + 1,
            id_prefix="read",
        )
    )
    labels = [f"q{i:02d}" for i in range(len(queries))]
    return database, queries, labels


def _arrange_traffic(
    cell: Cell, queries: list, labels: list[str], gap: float
) -> tuple[list, list[str], list[float]]:
    """Apply the traffic mix: the submitted sequence and arrival times."""
    if cell.mix == "zipf":
        n = len(queries)
        picks = [_ZIPF_PICKS[i % len(_ZIPF_PICKS)] % n for i in range(n)]
        queries = [queries[p] for p in picks]
        labels = [f"{labels[p]}r{i}" for i, p in enumerate(picks)]
        arrivals = [i * gap for i in range(n)]
    elif cell.mix == "burst":
        head = max(1, (2 * len(queries)) // 3)
        arrivals = [0.0] * head + [
            (i - head + 1) * 2 * gap for i in range(head, len(queries))
        ]
    else:  # uniform
        arrivals = [i * gap for i in range(len(queries))]
    return queries, labels, arrivals


def _fault_schedule(
    cell: Cell, mendel: Mendel, t_base: float, seed: int
) -> tuple[FaultSchedule | None, float | None]:
    """(schedule, subquery deadline) for the cell's chaos intensity."""
    if cell.chaos == "none":
        return None, None
    groups = mendel.index.topology.groups
    victim = groups[0].nodes[0].node_id
    heartbeat = max(1e-4, t_base / 5.0)
    if cell.chaos == "light":
        events = (
            FaultEvent.crash(t_base * 0.2, victim),
            FaultEvent.restart(t_base * 2.5, victim),
        )
        return (
            FaultSchedule(
                events=events, seed=seed, heartbeat_interval=heartbeat,
                auto_repair=False,
            ),
            None,
        )
    straggler = groups[1 % len(groups)].nodes[-1].node_id
    events = (
        FaultEvent.crash(t_base * 0.1, victim),
        FaultEvent.slowdown(
            0.0, straggler, factor=0.1, duration=t_base * 8.0
        ),
    )
    return (
        FaultSchedule(
            events=events, seed=seed, heartbeat_interval=heartbeat,
            auto_repair=False,
        ),
        t_base * 2.5,
    )


def run_cell(cell: Cell, seed: int = 0, query_count: int = 8) -> CellResult:
    """Run one cell on a fresh deployment; fully deterministic in
    ``(cell, seed, query_count)``."""
    rng_seed = cell_seed(cell, seed)
    database, queries, labels = _build_workload(cell, rng_seed, query_count)
    config = MendelConfig(
        group_count=3, group_size=2, replication=1, sample_size=128,
        seed=rng_seed % 10_000 + 11,
    )
    mendel = Mendel.build(database, config)
    if cell.storage == "tier":
        mendel.spill(
            cache_bytes=4096, config=TierConfig(page_rows=32, cache_bytes=4096)
        )
    params = QueryParams(k=6, n=6, i=0.75)

    # Throwaway calibration query: t_base anchors arrival spacing and every
    # chaos timing to this cell's own scale (sim clock, so deterministic).
    t_base = max(mendel.query(queries[0], params).stats.turnaround, 1e-6)
    gap = t_base * 0.4

    queries, labels, arrivals = _arrange_traffic(cell, queries, labels, gap)
    faults, deadline = _fault_schedule(cell, mendel, t_base, rng_seed)
    contexts = [
        TraceContext(trace_id=f"explore-{cell.name}-{label}")
        for label in labels
    ]
    reports = mendel.engine.run_batch(
        queries,
        params,
        faults=faults,
        subquery_deadline=deadline,
        trace_contexts=contexts,
        arrival_times=arrivals,
    )

    entries = [query_entry(report) for report in reports]
    turnarounds = [e["turnaround_ms"] for e in entries]
    threshold = 1.5 * _median(turnarounds)
    slow = [e for e in entries if e["turnaround_ms"] > threshold]
    if not slow:
        # Flat cell: take the top quartile so every cell names a family.
        keep = max(1, len(entries) // 4)
        ranked = sorted(
            entries, key=lambda e: (-e["turnaround_ms"], e["trace_id"])
        )
        slow = ranked[:keep]
        threshold = min(e["turnaround_ms"] for e in slow)
    slow = sorted(slow, key=lambda e: (-e["turnaround_ms"], e["trace_id"]))

    families = cluster_slow_queries(slow)
    critical = critical_path_table(
        [r.root_span for r in reports
         if any(e["trace_id"] == r.trace_id for e in slow)]
    )

    hedged = sum(r.stats.hedged_retries for r in reports)
    evals = sum(r.stats.node_evals for r in reports)
    cold = sum(1 for e in entries if e["fingerprint"]["cold_read"])
    mean_ms = sum(turnarounds) / len(turnarounds)
    makespan = max(
        arrival + report.stats.turnaround
        for arrival, report in zip(arrivals, reports)
    )
    bench = bench_report(
        SUITE_NAME,
        seed,
        {
            cell.name: {
                "sim_turnaround_mean_ms": Metric(
                    mean_ms, "ms", "lower", SIM_TOLERANCE
                ),
                "sim_turnaround_max_ms": Metric(
                    max(turnarounds), "ms", "lower", SIM_TOLERANCE
                ),
                "sim_makespan_ms": Metric(
                    makespan * 1e3, "ms", "lower", SIM_TOLERANCE
                ),
                "distance_evals": Metric(
                    evals, "evals", "stable", COUNT_TOLERANCE
                ),
                "slow_queries": Metric(len(slow), "queries", "stable", 0.0),
                "trace_families": Metric(
                    len(families), "families", "stable", 0.0
                ),
                "degraded_queries": Metric(
                    sum(1 for e in entries if e["degraded"]),
                    "queries", "stable", 0.0,
                ),
                "hedged_retries": Metric(hedged, "retries", "stable", 0.0),
                "cold_read_queries": Metric(cold, "queries", "stable", 0.0),
            }
        },
        cell=cell.name,
    )
    return CellResult(
        cell=cell,
        seed=seed,
        cell_seed=rng_seed,
        entries=entries,
        slow_entries=slow,
        slow_threshold_ms=round(threshold, 3),
        families=families,
        critical_path=critical,
        bench=bench,
    )


@dataclass
class ExploreResult:
    """One grid sweep: per-cell results plus the REPORT.md generator."""

    grid: str
    seed: int
    query_count: int
    cells: list[CellResult] = field(default_factory=list)

    def ranked(self) -> list[CellResult]:
        """Cells slowest-first (mean turnaround, ties by name)."""
        return sorted(
            self.cells,
            key=lambda c: (-c.mean_turnaround_ms, c.name),
        )

    def total_families(self) -> int:
        return sum(len(c.families) for c in self.cells)

    def to_markdown(self) -> str:
        """REPORT.md: the ranked cell table, then one section per cell
        naming its slow-query families and critical-path breakdown.

        Sim-clock numbers only (fixed rounding, no wall time, no dates):
        the same seed renders byte-identical markdown.
        """
        lines = [
            "# repro explore report",
            "",
            f"Grid `{self.grid}` | seed {self.seed} | "
            f"{len(self.cells)} cells | {self.query_count} queries/cell "
            "(all times are simulated-cluster milliseconds; wall-clock "
            "values are omitted for reproducibility)",
            "",
            "## Cell ranking (slowest first)",
            "",
            "| rank | cell | mean ms | max ms | slow | degraded | "
            "dominant slow family |",
            "|---:|---|---:|---:|---:|---:|---|",
        ]
        for rank, cell in enumerate(self.ranked(), start=1):
            lines.append(
                f"| {rank} | `{cell.name}` | {cell.mean_turnaround_ms:.3f} "
                f"| {cell.max_turnaround_ms:.3f} | {len(cell.slow_entries)} "
                f"| {cell.degraded_count} | {cell.dominant_family} |"
            )
        for cell in self.ranked():
            lines.extend(self._cell_section(cell))
        return "\n".join(lines) + "\n"

    def _cell_section(self, cell: CellResult) -> list[str]:
        spec = cell.cell
        lines = [
            "",
            f"## `{cell.name}`",
            "",
            f"Traffic `{spec.mix}`, workload `{spec.workload}`, chaos "
            f"`{spec.chaos}`, storage `{spec.storage}` "
            f"(cell seed {cell.cell_seed}).",
            "",
            f"Mean turnaround {cell.mean_turnaround_ms:.3f} ms, max "
            f"{cell.max_turnaround_ms:.3f} ms; {len(cell.slow_entries)} of "
            f"{len(cell.entries)} queries at or above the "
            f"{cell.slow_threshold_ms:.3f} ms slow threshold, "
            f"{cell.degraded_count} degraded.",
            "",
            "### Slow-query families",
            "",
            "| family | count | share | mean ms | max ms | "
            "exemplar traces |",
            "|---|---:|---:|---:|---:|---|",
        ]
        for family in cell.families:
            exemplars = ", ".join(
                f"`{t}`" for t in family["exemplar_trace_ids"]
            ) or "-"
            lines.append(
                f"| {family['family']} | {family['count']} "
                f"| {family['share'] * 100:.0f}% "
                f"| {family['mean_turnaround_ms']:.3f} "
                f"| {family['max_turnaround_ms']:.3f} "
                f"| {exemplars} |"
            )
        lines.extend(
            [
                "",
                "### Critical path (slow queries)",
                "",
                "| stage | self ms | share | total ms | steps |",
                "|---|---:|---:|---:|---:|",
            ]
        )
        for row in cell.critical_path:
            lines.append(
                f"| {row['stage']} | {row['self_ms']:.3f} "
                f"| {row['share'] * 100:.0f}% | {row['total_ms']:.3f} "
                f"| {row['count']} |"
            )
        return lines

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write ``REPORT.md`` plus one ``explore-<cell>.json`` per cell
        (BENCH schema v1); returns the paths, keyed by artifact name."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        report_path = out_dir / "REPORT.md"
        report_path.write_text(self.to_markdown(), encoding="utf-8")
        paths["REPORT.md"] = report_path
        for cell in self.cells:
            path = out_dir / f"explore-{cell.name}.json"
            path.write_text(
                json.dumps(cell.bench, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            paths[path.name] = path
        return paths


def run_explore(
    grid: str = "small",
    seed: int = 0,
    query_count: int = 8,
    cells: tuple[Cell, ...] | None = None,
) -> ExploreResult:
    """Sweep *grid* (or an explicit *cells* tuple) at *seed*."""
    if cells is None:
        try:
            cells = GRIDS[grid]
        except KeyError:
            raise ValueError(
                f"unknown grid {grid!r}; expected one of {sorted(GRIDS)}"
            ) from None
    result = ExploreResult(grid=grid, seed=seed, query_count=query_count)
    for cell in cells:
        result.cells.append(run_cell(cell, seed=seed, query_count=query_count))
    return result
