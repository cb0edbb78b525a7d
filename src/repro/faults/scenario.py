"""The canonical chaos experiment: kill one node per group, then recover.

``run_kill_recover_scenario`` builds a fresh deployment, measures a healthy
baseline, then replays the same query batch while a scripted
:class:`~repro.faults.schedule.FaultSchedule` crashes the first node of
every group half-way through the healthy makespan and restarts it at twice
that time, with queries arriving throughout the failure window.  It
reports *recall under failure* (did degraded queries still find the planted
subject?) alongside per-query coverage — the experiment behind
``repro chaos``, ``repro watch`` (headless) and ``examples/chaos.py``.

Build, probes, the traced and monitored run, and the seeding contract (two
calls with equal arguments produce byte-identical reports and event logs)
come from :mod:`repro.scenario`; this module adds the fault script and the
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.framework import Mendel
from repro.core.query import QueryReport
from repro.faults.schedule import kill_and_recover
from repro.scenario import (
    PARAMS,
    Run,
    build_deployment,
    drive,
    planted_probes,
    probe_recall,
)


@dataclass
class ScenarioResult(Run):
    """Outcome of one kill/recover experiment (the chaos run's reports,
    monitor and chaos counters, plus the verdict)."""

    #: reports from the healthy run of the same batch (fresh deployment)
    baseline: list[QueryReport] = field(default_factory=list)
    #: node ids crashed
    victims: list[str] = field(default_factory=list)
    #: fraction of probes whose best hit matched the planted subject
    recall: float = 0.0
    baseline_recall: float = 0.0

    @property
    def min_coverage(self) -> float:
        return min((r.coverage for r in self.reports), default=1.0)

    @property
    def degraded_queries(self) -> int:
        return sum(1 for r in self.reports if r.degraded)

    def summary_rows(self) -> list[tuple[str, str]]:
        """Key/value rows for tabular display (CLI and example)."""
        return [
            ("queries", str(len(self.reports))),
            ("victims", ",".join(self.victims)),
            ("kill_at", f"{min(e.at for e in self.schedule.events):.6f}s"),
            ("recover_at", f"{max(e.at for e in self.schedule.events):.6f}s"),
            ("baseline recall", f"{self.baseline_recall:.0%}"),
            ("recall under failure", f"{self.recall:.0%}"),
            ("min coverage", f"{self.min_coverage:.3f}"),
            ("degraded queries", str(self.degraded_queries)),
            ("blocks re-replicated",
             str(self.chaos_summary.get("blocks_streamed", 0))),
            ("deaths declared",
             str(self.chaos_summary.get("deaths_declared", 0))),
            ("messages dropped",
             str(self.chaos_summary.get("messages_dropped", 0))),
        ]

    def frame(self) -> dict:
        """The dashboard frame at run end (``repro watch --format json``)."""
        frame = self.monitor.snapshot()
        frame["firing"] = self.monitor.alerts_firing()
        frame["seed"] = self.schedule.seed
        return frame

    def checks(self, slo: str = "availability") -> dict[str, bool]:
        """The alert cycle ``repro watch --assert-cycle SLO`` demands: the
        kill pages *slo* with an explanation, recovery resolves it, and
        the run ends with nothing firing."""
        cycle = [t for t in self.monitor.slo_engine.transitions
                 if t.slo == slo]
        fired = next(
            (i for i, t in enumerate(cycle)
             if t.to in ("warning", "critical")), None,
        )
        return {
            f"{slo} alert fired": fired is not None,
            f"{slo} alert resolved afterwards": fired is not None and any(
                t.to == "resolved" for t in cycle[fired:]
            ),
            "alert carries a suspected cause":
                fired is not None and cycle[fired].cause is not None,
            "alert carries trace ids":
                fired is not None and bool(cycle[fired].trace_ids),
            "nothing left firing": self.monitor.alerts_firing() == [],
        }


def twin_deployments(
    seed: int, database_size: int, probe_count: int, **shape
) -> tuple[Mendel, Mendel, list, list[str]]:
    """Where every fault experiment starts: ``(control, subject, probes,
    expected)`` — two identically seeded deployments of *database_size*
    150-residue proteins (the faulted run mutates the subject; the control
    stays healthy) and one planted probe batch spread over the database."""
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count}")
    control = build_deployment(seed, (database_size, 150), **shape)
    subject = build_deployment(seed, (database_size, 150), **shape)
    probes, expected = planted_probes(subject, probe_count, seed + 10,
                                      spread=True)
    return control, subject, probes, expected


def crash_first_nodes(
    mendel: Mendel, probes: list, kill_at: float, label: str, seed: int,
    subquery_deadline: float | None = None,
) -> tuple[list[str], Run]:
    """Drive *probes* while the first node of every group crashes at
    ``kill_at`` and restarts at ``2 * kill_at``.  The batch arrives spread
    over ``3 * kill_at`` — some queries run healthy, some against a dead
    cluster slice, some after recovery.  Returns ``(victims, run)``."""
    victims = [g.nodes[0].node_id for g in mendel.index.topology.groups]
    schedule = kill_and_recover(
        victims, kill_at=kill_at, recover_at=2 * kill_at,
        seed=seed, heartbeat_interval=kill_at / 8,
    )
    run = drive(
        mendel, probes, label, seed, faults=schedule,
        arrival_interval=3 * kill_at / len(probes),
        subquery_deadline=subquery_deadline,
    )
    return victims, run


def run_kill_recover_scenario(
    replication: int = 2,
    group_count: int = 3,
    group_size: int = 3,
    database_size: int = 18,
    probe_count: int = 6,
    seed: int = 0,
    subquery_deadline: float | None = None,
) -> ScenarioResult:
    """Run the kill-one-node-per-group experiment; see the module docstring."""
    healthy, mendel, probes, expected = twin_deployments(
        seed, database_size, probe_count, replication=replication,
        group_count=group_count, group_size=group_size,
    )
    # Half the healthy makespan puts the failure mid-batch.
    baseline = healthy.engine.run_batch(probes, PARAMS)
    kill_at = max(r.stats.turnaround for r in baseline) / 2
    victims, run = crash_first_nodes(
        mendel, probes, kill_at, "chaos", seed, subquery_deadline,
    )
    return ScenarioResult(
        **vars(run),
        baseline=baseline,
        victims=victims,
        recall=probe_recall(run.reports, expected),
        baseline_recall=probe_recall(baseline, expected),
    )
