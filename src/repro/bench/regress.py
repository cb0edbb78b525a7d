"""Perf-trajectory regression harness: canonical workloads, BENCH files,
and the tolerance-band comparator behind ``repro bench --regress``.

The repo's figures reproduce the paper's *shapes*; this module tracks the
reproduction's *own* cost model over time.  One run executes four
canonical workloads at fixed laptop scale and fixed seeds:

* ``index_build``   — build a family database deployment (simulated
  makespan + construction counters);
* ``query_sweep``   — a fig6a-style read sweep over three query lengths
  (per-length simulated turnaround + pipeline counters);
* ``cold_vs_warm_query`` — the tiered-storage scenario
  (:mod:`repro.tier.scenario`): the fig6a sweep all-RAM, then spilled to
  compressed block files behind a bounded cache (equivalence flag, cold
  vs warm simulated turnaround, bytes on disk, compression ratio, and
  the ``capacity_x`` headroom measure);
* ``degraded_query``— the same deployment with one node crash-stopped
  (coverage and degraded turnaround).

Results are written to ``BENCH_<n>.json`` at the repository root —
``n`` increments per run, so the sequence of committed files is the
project's performance trajectory — and compared against the previous run
with per-metric tolerance bands.

BENCH file schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "suite": "repro-regress",
      "seed": 23,
      "python": "3.12.3",
      "workloads": {
        "<workload>": {
          "metrics": {
            "<metric>": {
              "value": 12.34,          # the measurement
              "unit": "ms",            # display unit
              "direction": "lower",    # lower | higher | stable
              "tolerance": 0.05        # fractional band, see below
            }, ...
          }
        }, ...
      }
    }

The comparator flags metric M as a regression when, for tolerance ``t``:

* ``direction == "lower"``  and ``new > old * (1 + t)``;
* ``direction == "higher"`` and ``new < old * (1 - t)``;
* ``direction == "stable"`` and ``|new - old| > t * max(|old|, 1)``.

Every metric the suite emits is simulated-clock or counter data:
seed-deterministic and machine-independent, so the bands are tight and
catch real algorithmic regressions even when the baseline was produced on
different hardware.  Wall-clock numbers are ``perfbench``'s job (repeated
runs, spread reported), not a single shot's; the comparator still honours
whatever band a metric in an older BENCH file declares.
"""

from __future__ import annotations

import json
import platform
import re
from dataclasses import dataclass
from pathlib import Path

from repro.bench.workloads import FamilySpec
from repro.core.framework import Mendel
from repro.scenario import (
    SWEEP_LENGTHS,
    SWEEP_PARAMS,
    build_deployment,
    sweep_queries,
)

SCHEMA_VERSION = 1
SUITE_NAME = "repro-regress"

#: Simulated-clock band: the sim is seed-deterministic; drift is a change.
SIM_TOLERANCE = 0.05
#: Counter band: pipeline counters are exactly reproducible.
COUNT_TOLERANCE = 0.02

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class Metric:
    """One measurement plus the band it promises to stay inside."""

    value: float
    unit: str
    direction: str  # "lower" | "higher" | "stable"
    tolerance: float

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher", "stable"):
            raise ValueError(f"bad metric direction {self.direction!r}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")

    def to_dict(self) -> dict:
        return {
            "value": round(float(self.value), 6),
            "unit": self.unit,
            "direction": self.direction,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Metric":
        return cls(
            value=float(raw["value"]),
            unit=str(raw.get("unit", "")),
            direction=str(raw.get("direction", "lower")),
            tolerance=float(raw.get("tolerance", 0.0)),
        )


@dataclass(frozen=True)
class Regression:
    """One metric that left its tolerance band versus the baseline."""

    workload: str
    metric: str
    baseline: float
    current: float
    unit: str
    direction: str
    tolerance: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        return (
            f"{self.workload}.{self.metric}: {self.baseline:g} -> "
            f"{self.current:g} {self.unit} ({self.ratio:.2f}x, "
            f"direction={self.direction}, tolerance={self.tolerance:g})"
        )


class SchemaMismatch(ValueError):
    """Baseline and current BENCH files use different schema versions."""


# -- workloads -------------------------------------------------------------------


def bench_report(
    suite: str, seed: int, workloads: "dict[str, dict[str, Metric]]", **extra
) -> dict:
    """The BENCH document for *workloads* (workload -> metric -> Metric)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "python": platform.python_version(),
        **extra,
        "workloads": {
            workload: {
                "metrics": {
                    name: metric.to_dict() for name, metric in metrics.items()
                }
            }
            for workload, metrics in workloads.items()
        },
    }


def suite_deployment(seed: int) -> Mendel:
    """The deployment the suite measures (and ``repro profile`` captures
    on, so cost profiles and BENCH metrics describe the same work)."""
    return build_deployment(
        seed,
        FamilySpec(families=30, members_per_family=4, length=150),
        group_count=4,
        group_size=3,
    )


def run_suite(seed: int = 23) -> dict:
    """Execute the canonical workloads; returns the BENCH report dict."""
    # Imported here: the tier scenario builds its BENCH metrics from this
    # module's Metric.
    from repro.tier.scenario import run_tier_scenario

    workloads: dict[str, dict[str, Metric]] = {}

    # -- index build -----------------------------------------------------------
    mendel = suite_deployment(seed)
    stats = mendel.index.stats
    workloads["index_build"] = {
        "sim_makespan_s": Metric(
            stats.simulated_makespan, "s", "lower", SIM_TOLERANCE
        ),
        "blocks": Metric(stats.block_count, "blocks", "stable", 0.0),
        "hash_evals": Metric(
            stats.hash_evals, "evals", "stable", COUNT_TOLERANCE
        ),
    }

    # -- query sweep (fig6a shape at fixed laptop scale) -----------------------
    queries = sweep_queries(mendel, seed)
    reports = [mendel.query(q, SWEEP_PARAMS) for q in queries]
    workloads["query_sweep"] = {
        **{
            f"sim_turnaround_ms_len{length}": Metric(
                1e3 * report.stats.turnaround, "ms", "lower", SIM_TOLERANCE
            )
            for length, report in zip(SWEEP_LENGTHS, reports)
        },
        "distance_evals": Metric(
            sum(r.stats.node_evals for r in reports),
            "evals", "stable", COUNT_TOLERANCE,
        ),
        "knn_candidates": Metric(
            sum(r.stats.candidate_hits for r in reports),
            "candidates", "stable", COUNT_TOLERANCE,
        ),
    }

    # -- tiered storage: cold vs warm ------------------------------------------
    workloads.update(run_tier_scenario(seed=seed).bench_metrics())

    # -- degraded-mode query ---------------------------------------------------
    victim = mendel.index.topology.nodes[0].node_id
    mendel.fail_node(victim)
    try:
        report = mendel.query(queries[0], SWEEP_PARAMS)
        workloads["degraded_query"] = {
            "coverage": Metric(
                report.coverage, "fraction", "higher", SIM_TOLERANCE
            ),
            "sim_turnaround_ms": Metric(
                1e3 * report.stats.turnaround, "ms", "lower", SIM_TOLERANCE
            ),
        }
    finally:
        mendel.recover_node(victim)

    return bench_report(SUITE_NAME, seed, workloads)


# -- BENCH file management -------------------------------------------------------


def find_runs(root: str | Path) -> list[tuple[int, Path]]:
    """``(n, path)`` for every ``BENCH_<n>.json`` under *root*, ascending."""
    root = Path(root)
    runs = []
    if root.is_dir():
        for path in root.iterdir():
            match = _BENCH_RE.match(path.name)
            if match:
                runs.append((int(match.group(1)), path))
    return sorted(runs)


def latest_run(root: str | Path) -> tuple[int, Path] | None:
    runs = find_runs(root)
    return runs[-1] if runs else None


def write_report(report: dict, root: str | Path) -> Path:
    """Persist *report* as the next ``BENCH_<n>.json`` under *root*."""
    runs = find_runs(root)
    next_n = runs[-1][0] + 1 if runs else 1
    path = Path(root) / f"BENCH_{next_n}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict) or "workloads" not in report:
        raise ValueError(f"{path} is not a BENCH report")
    return report


# -- comparator ------------------------------------------------------------------


def compare(current: dict, baseline: dict) -> list[Regression]:
    """Every metric of *current* outside its band versus *baseline*.

    Metrics present in only one report are ignored (the suite is allowed
    to grow); a schema version difference raises :class:`SchemaMismatch`
    because bands and semantics may have changed between versions.
    """
    cur_version = current.get("schema_version")
    base_version = baseline.get("schema_version")
    if cur_version != base_version:
        raise SchemaMismatch(
            f"cannot compare schema v{cur_version} against v{base_version}"
        )
    regressions: list[Regression] = []
    for workload, payload in sorted(current.get("workloads", {}).items()):
        base_payload = baseline.get("workloads", {}).get(workload)
        if base_payload is None:
            continue
        for name, raw in sorted(payload.get("metrics", {}).items()):
            base_raw = base_payload.get("metrics", {}).get(name)
            if base_raw is None:
                continue
            metric = Metric.from_dict(raw)
            base_value = float(base_raw["value"])
            if _regressed(metric, base_value):
                regressions.append(
                    Regression(
                        workload=workload,
                        metric=name,
                        baseline=base_value,
                        current=metric.value,
                        unit=metric.unit,
                        direction=metric.direction,
                        tolerance=metric.tolerance,
                    )
                )
    return regressions


def _regressed(metric: Metric, baseline: float) -> bool:
    value, tol = metric.value, metric.tolerance
    if metric.direction == "lower":
        if baseline == 0:
            return value > tol
        return value > baseline * (1 + tol)
    if metric.direction == "higher":
        return value < baseline * (1 - tol)
    return abs(value - baseline) > tol * max(abs(baseline), 1.0)


def format_report(report: dict) -> str:
    """One-line-per-metric rendering of a BENCH report."""
    lines = [
        f"{report.get('suite', SUITE_NAME)} "
        f"(schema v{report.get('schema_version')}, seed {report.get('seed')})"
    ]
    for workload, payload in sorted(report.get("workloads", {}).items()):
        lines.append(f"  {workload}:")
        for name, raw in sorted(payload.get("metrics", {}).items()):
            metric = Metric.from_dict(raw)
            lines.append(
                f"    {name:<26}{metric.value:>14.4f} {metric.unit:<10} "
                f"[{metric.direction}, tol {metric.tolerance:g}]"
            )
    return "\n".join(lines)


def format_comparison(
    regressions: list[Regression], baseline_path: Path | str
) -> str:
    if not regressions:
        return f"no regressions against {baseline_path}"
    lines = [f"{len(regressions)} regression(s) against {baseline_path}:"]
    lines.extend(f"  REGRESSION {r.describe()}" for r in regressions)
    return "\n".join(lines)
