"""The scenario harness: the five steps every robustness experiment shares.

Each claim the repo makes about itself — byte-identical per ``CHAOS_SEED``,
recovered == uncrashed, tiered == all-RAM, alert → action → resolve — is
proven by a scenario driver (``repro chaos`` / ``watch`` / ``autoscale`` /
``recover`` / ``scrub`` / ``tier``).  They all walk the same path, written
once here:

1. **build** — :func:`build_deployment`: seeded corpus → ``MendelConfig`` →
   ``Mendel.build``.  Equal arguments give an identical deployment, so a
   control twin is simply a second call.
2. **probes** — :func:`planted_probes`: mutated copies of database records,
   returned with the ids they were planted from (what recall is scored on);
   :func:`sweep_queries` for the family-corpus read sweep.
3. **drive** — :func:`drive`: one traced, monitored batch on one sim clock,
   optionally under a fault schedule or an autoscaler; what rode the run
   (its chaos controller) comes back on the batch's reports.
4. **signature** — :func:`answer_signature`: everything an answer asserts,
   floats by ``repr``, for exact comparison between deployments.
5. **outcome** — the :class:`Outcome` contract: what a scenario's result
   object offers the CLI and CI (``summary_rows`` / ``frame`` / ``checks``).

What stays with each scenario, in its owning package, is the part that is
actually specific: which faults or traffic to schedule and which verdict to
compute from the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.bench.workloads import (
    FamilySpec,
    generate_family_database,
    generate_read_queries,
)
from repro.core.framework import Mendel
from repro.core.params import MendelConfig, QueryParams
from repro.core.query import QueryReport
from repro.obs.events import EventLog
from repro.obs.health import HealthMonitor
from repro.obs.trace import TraceContext
from repro.seq import PROTEIN, random_set
from repro.seq.mutate import mutate_to_identity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.schedule import FaultSchedule

#: query parameters of the chaos, durability and autoscale experiments
PARAMS = QueryParams(k=4, n=6, i=0.7)
#: read lengths and query parameters of the fig6a-style sweep that the
#: family-corpus recipes (tier, regress, profile) run
SWEEP_LENGTHS = (300, 600, 900)
SWEEP_PARAMS = QueryParams(k=8, n=6, i=0.8)


def build_deployment(
    seed: int, corpus: "FamilySpec | tuple[int, int]", **config
) -> Mendel:
    """One seeded deployment: *corpus* indexed on a cluster shaped by
    *config* (``MendelConfig`` fields).

    A ``(count, length)`` corpus is that many random proteins — the chaos /
    durability / autoscale recipe, with the database, the placement and the
    probes (:func:`planted_probes`) on distinct offsets of *seed*.  A
    :class:`~repro.bench.workloads.FamilySpec` corpus is a family database —
    the tier / regress / profile recipe, database and placement both on
    *seed* itself.
    """
    if isinstance(corpus, FamilySpec):
        database = generate_family_database(corpus, rng=seed)
        config = {"seed": seed, **config}
    else:
        count, length = corpus
        database = random_set(count=count, length=length, alphabet=PROTEIN,
                              rng=seed + 1, id_prefix="ref")
        config = {"sample_size": 256, "seed": seed + 2, **config}
    return Mendel.build(database, MendelConfig(**config))


def planted_probes(mendel: Mendel, count: int, rng: int,
                   spread: bool = False) -> tuple[list, list[str]]:
    """*count* 90 %-identity mutants of indexed records, as ``(probes,
    expected_ids)``: probe ``i`` is mutated from record ``i`` (wrapping), or
    with *spread* from every ``size // count``-th record so a short batch
    still samples the whole database; its mutation stream is ``rng + i``."""
    records = mendel.index.database.records
    stride = max(1, len(records) // count) if spread else 1
    targets = [records[(i * stride) % len(records)] for i in range(count)]
    probes = [
        mutate_to_identity(target, 0.9, rng=rng + i, seq_id=f"probe-{i}")
        for i, target in enumerate(targets)
    ]
    return probes, [target.seq_id for target in targets]


def sweep_queries(mendel: Mendel, seed: int, per_length: int = 1,
                  prefix: str = "sweep") -> list:
    """*per_length* reads of each ``SWEEP_LENGTHS`` length sampled from the
    indexed database, each length on its own ``seed + length`` stream."""
    return [
        query
        for length in SWEEP_LENGTHS
        for query in generate_read_queries(
            mendel.index.database, per_length, length, rng=seed + length,
            id_prefix=f"{prefix}-{length}",
        )
    ]


def probe_recall(reports: list[QueryReport], expected: list[str]) -> float:
    """Fraction of probes whose best hit is the subject it was planted from."""
    hits = 0
    for report, target in zip(reports, expected):
        best = report.best()
        hits += best is not None and best.subject_id == target
    return hits / max(1, len(expected))


@dataclass
class Run:
    """One driven batch and what rode it."""

    #: per-query reports, in arrival order
    reports: list[QueryReport]
    #: the health monitor that rode the run (SLIs, alert transitions with
    #: correlated causes, the event log)
    monitor: HealthMonitor
    #: the fault schedule that was replayed (``None``: a fault-free run)
    schedule: "FaultSchedule | None" = None
    #: chaos-controller counters (repairs, detections, drops, scrub passes)
    chaos_summary: dict = field(default_factory=dict)
    #: chaos timeline, stringified for printing
    chaos_log: list[str] = field(default_factory=list)


def drive(
    mendel: Mendel,
    probes: list,
    label: str,
    seed: int,
    *,
    faults: "FaultSchedule | None" = None,
    arrival_interval: float = 0.0,
    arrival_times: "list[float] | None" = None,
    subquery_deadline: float | None = None,
    monitor: HealthMonitor | None = None,
    autoscaler=None,
) -> Run:
    """Run *probes* against *mendel* as one traced, monitored batch.

    Trace ids are explicit and seed-derived (``<label>-<seed>-q<i>``): the
    process-global ``TraceContext`` counter would differ between two
    otherwise identical runs, breaking the byte-identical event-log replay
    contract.  Without a *monitor* the run gets one scaled to the *faults*
    horizon, on a fresh event log.
    """
    contexts = [
        TraceContext(trace_id=f"{label}-{seed}-q{i}")
        for i in range(len(probes))
    ]
    if monitor is None:
        monitor = HealthMonitor.for_chaos_run(
            faults.effective_horizon,
            arrival_interval=arrival_interval,
            event_log=EventLog(),
        )
    reports = mendel.engine.run_batch(
        probes,
        PARAMS,
        arrival_interval=arrival_interval,
        arrival_times=arrival_times,
        faults=faults,
        subquery_deadline=subquery_deadline,
        trace_contexts=contexts,
        monitor=monitor,
        autoscaler=autoscaler,
    )
    chaos = reports.chaos
    return Run(
        reports=reports,
        monitor=monitor,
        schedule=faults,
        chaos_summary=chaos.summary() if chaos is not None else {},
        chaos_log=[str(entry) for entry in chaos.log]
        if chaos is not None else [],
    )


def answer_signature(report: QueryReport, counters: bool = False) -> tuple:
    """A byte-stable tuple of everything *report*'s answer asserts: each
    ranked alignment's ids, coordinates and gaps, and its four scores by
    ``repr`` (no rounding — a last-digit drift is a difference).

    With *counters* the deterministic pipeline counters ride along, for
    comparisons that promise identical work, not just identical answers.
    Simulated turnaround is never part of it: cold reads and repairs are
    *supposed* to cost simulated time.
    """
    alignments = tuple(
        (
            a.query_id,
            a.subject_id,
            a.query_start,
            a.query_end,
            a.subject_start,
            a.subject_end,
            repr(a.score),
            repr(a.bit_score),
            repr(a.evalue),
            repr(a.identity),
            a.gaps,
        )
        for a in report.alignments
    )
    if counters:
        return (alignments, report.stats.candidate_hits,
                report.stats.node_evals)
    return alignments


class Outcome(Protocol):
    """What a scenario's result object offers ``repro <cmd>`` and CI.  A
    command with ``--bench-out`` also needs ``bench_metrics()``: workload ->
    metric name -> :class:`repro.bench.regress.Metric`."""

    def summary_rows(self) -> list[tuple[str, str]]:
        """Key/value rows of the text table."""

    def frame(self) -> dict:
        """The ``--format json`` document (seed-deterministic, JSON-safe)."""

    def checks(self) -> dict[str, bool]:
        """Named verdicts; the command's ``--assert-*`` flag exits non-zero
        unless every one holds."""
