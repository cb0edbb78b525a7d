"""Benchmark harness: workload generators, per-figure experiment runners
(declared with their shape checks in :data:`repro.bench.figures.FIGURES`),
and result-table formatting."""

from repro.bench.figures import (
    ExperimentResult,
    run_fig5_load_balance,
    run_fig6a_query_length,
    run_fig6b_db_size,
    run_fig6c_scalability,
    run_fig6d_sensitivity,
)
from repro.bench.harness import format_table, growth_ratio, speedup
from repro.bench.workloads import (
    FamilySpec,
    generate_family_database,
    generate_read_queries,
    sensitivity_groups,
)

__all__ = [
    "ExperimentResult",
    "run_fig5_load_balance",
    "run_fig6a_query_length",
    "run_fig6b_db_size",
    "run_fig6c_scalability",
    "run_fig6d_sensitivity",
    "format_table",
    "growth_ratio",
    "speedup",
    "FamilySpec",
    "generate_family_database",
    "generate_read_queries",
    "sensitivity_groups",
]
