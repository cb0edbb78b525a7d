"""Durability and scrub experiments: the proof obligations of ``repro.store``.

Two seeded, replayable scenario drivers over :mod:`repro.scenario`:

``run_durability_scenario``
    The recovery-correctness experiment behind ``repro recover``.  Two
    identically seeded deployments; one suffers a crash + restart of the
    first node of every group mid-batch, the other stays healthy.  After
    the chaos run — every victim restarted strictly from its snapshot +
    WAL, RAM wiped — the *same* fresh probe batch runs against both
    clusters and the answers are compared alignment-by-alignment: recovery
    is correct only if the recovered cluster is byte-identical to one that
    never crashed.

``run_scrub_scenario``
    The detect → quarantine → heal → resolve experiment behind
    ``repro scrub``.  Bit flips are injected into scripted victims' durable
    blocks while a cadenced scrubber runs; afterwards the event log must
    show the full causal chain (``bit_flip`` → ``corruption_detected`` →
    ``scrub_heal`` → ``repair``), a final audit pass must find nothing
    left to heal, and the answers must match an uncorrupted control run
    (verified reads route around rot while it is being healed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import QueryReport
from repro.faults.scenario import crash_first_nodes, twin_deployments
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.scenario import PARAMS, Run, answer_signature, drive, probe_recall

#: simulated time of the crash (``repro recover``) / the bit flips
#: (``repro scrub``)
KILL_AT = 0.01
FLIP_AT = 0.005
#: cadence of the scrubber under ``repro scrub``
SCRUB_INTERVAL = FLIP_AT / 2


def _differing(probes: list, reports: list[QueryReport],
               control: list[QueryReport]) -> list[str]:
    """Ids of the probes the two clusters answered differently."""
    return [
        probe.seq_id
        for probe, got, want in zip(probes, reports, control)
        if answer_signature(got) != answer_signature(want)
    ]


@dataclass
class DurabilityResult(Run):
    """Outcome of one crash / durable-recovery / replay experiment
    (``reports`` is the batch issued *during* the failure window)."""

    victims: list[str] = field(default_factory=list)
    #: per-victim replay reports (torn records, CRC errors, blocks)
    recovery: dict = field(default_factory=dict)
    #: post-recovery probe batch on the recovered cluster…
    probe_reports: list[QueryReport] = field(default_factory=list)
    #: …and the same batch on the never-crashed control
    control_reports: list[QueryReport] = field(default_factory=list)
    #: query ids whose recovered answers differ from the control's
    mismatched_queries: list[str] = field(default_factory=list)
    recall: float = 0.0
    control_recall: float = 0.0

    @property
    def identical(self) -> bool:
        """Did the recovered cluster answer byte-identically?"""
        return not self.mismatched_queries

    @property
    def blocks_recovered(self) -> int:
        return sum(rep.get("blocks", 0) for rep in self.recovery.values())

    def summary_rows(self) -> list[tuple[str, str]]:
        return [
            ("victims", ",".join(self.victims)),
            ("queries under chaos", str(len(self.reports))),
            ("blocks replayed", str(self.blocks_recovered)),
            ("torn WAL records", str(sum(
                rep.get("torn_records", 0) for rep in self.recovery.values()
            ))),
            ("post-recovery queries", str(len(self.probe_reports))),
            ("recovered == control", "yes" if self.identical else "NO"),
            ("mismatched queries", str(len(self.mismatched_queries))),
            ("recall (recovered)", f"{self.recall:.0%}"),
            ("recall (control)", f"{self.control_recall:.0%}"),
            ("blocks re-replicated",
             str(self.chaos_summary.get("blocks_streamed", 0))),
        ]

    def frame(self) -> dict:
        return {
            "seed": self.schedule.seed,
            "victims": self.victims,
            "identical": self.identical,
            "mismatched_queries": self.mismatched_queries,
            "blocks_recovered": self.blocks_recovered,
            "recovery": self.recovery,
            "recall": self.recall,
            "control_recall": self.control_recall,
        }

    def checks(self) -> dict[str, bool]:
        """What ``repro recover --assert-identical`` demands."""
        return {
            "recovered == control": self.identical,
            "blocks replayed from durable state": self.blocks_recovered > 0,
            "no CRC errors during replay": all(
                rep.get("crc_errors", 0) == 0
                for rep in self.recovery.values()
            ),
        }


def run_durability_scenario(
    replication: int = 2,
    group_count: int = 3,
    group_size: int = 3,
    database_size: int = 18,
    probe_count: int = 6,
    seed: int = 0,
) -> DurabilityResult:
    """Crash every group's first node mid-batch, restart it from durable
    state, then prove the recovered cluster indistinguishable from one that
    never crashed; see the module docstring."""
    control, mendel, probes, expected = twin_deployments(
        seed, database_size, probe_count, replication=replication,
        group_count=group_count, group_size=group_size,
    )
    victims, run = crash_first_nodes(
        mendel, probes, KILL_AT, "durability", seed,
    )
    recovery = {
        victim: dict(mendel.index.node(victim).last_recovery or {})
        for victim in victims
    }

    # The verdict batch: same probes, both clusters, no faults.  The
    # recovered cluster must answer exactly like the control.
    probe_reports = mendel.engine.run_batch(probes, PARAMS)
    control_reports = control.engine.run_batch(probes, PARAMS)
    return DurabilityResult(
        **vars(run),
        victims=victims,
        recovery=recovery,
        probe_reports=probe_reports,
        control_reports=control_reports,
        mismatched_queries=_differing(probes, probe_reports, control_reports),
        recall=probe_recall(probe_reports, expected),
        control_recall=probe_recall(control_reports, expected),
    )


@dataclass
class ScrubScenarioResult(Run):
    """Outcome of one bit-rot / scrub / heal experiment."""

    #: ``(node_id, block_id)`` pairs whose durable bytes were flipped
    flips: list[tuple[str, int]] = field(default_factory=list)
    #: the same batch against an uncorrupted control deployment
    control_reports: list[QueryReport] = field(default_factory=list)
    #: query ids answered differently from the control (must stay empty:
    #: verified reads route around rot)
    wrong_answers: list[str] = field(default_factory=list)
    #: replica copies still failing digest verification after the run
    unhealed: int = 0
    recall: float = 0.0
    control_recall: float = 0.0

    @property
    def corruptions_detected(self) -> int:
        return self.chaos_summary.get("corruptions_detected", 0)

    @property
    def heals_requested(self) -> int:
        return self.chaos_summary.get("heals_requested", 0)

    @property
    def resolved(self) -> bool:
        """Every injected flip detected, healed, and verified clean."""
        return (
            self.corruptions_detected >= len(self.flips) > 0
            and self.heals_requested > 0
            and self.unhealed == 0
        )

    def event_chain(self) -> list[str]:
        """Kinds of the corruption-relevant events, in log order."""
        relevant = {"bit_flip", "corruption_detected", "scrub_heal",
                    "repair", "alert"}
        return [e.kind for e in self.monitor.events.events()
                if e.kind in relevant]

    def summary_rows(self) -> list[tuple[str, str]]:
        return [
            ("bit flips injected", str(len(self.flips))),
            ("corruptions detected", str(self.corruptions_detected)),
            ("blocks quarantined",
             str(self.chaos_summary.get("blocks_quarantined", 0))),
            ("heals requested", str(self.heals_requested)),
            ("replicas checked",
             str(self.chaos_summary.get("replicas_checked", 0))),
            ("unhealed after run", str(self.unhealed)),
            ("wrong answers", str(len(self.wrong_answers))),
            ("recall (scrubbed)", f"{self.recall:.0%}"),
            ("recall (control)", f"{self.control_recall:.0%}"),
            ("resolved", "yes" if self.resolved else "NO"),
        ]

    def frame(self) -> dict:
        return {
            "seed": self.schedule.seed,
            "flips": [{"node": n, "block": b} for n, b in self.flips],
            "corruptions_detected": self.corruptions_detected,
            "heals_requested": self.heals_requested,
            "unhealed": self.unhealed,
            "wrong_answers": self.wrong_answers,
            "resolved": self.resolved,
            "event_chain": self.event_chain(),
            "recall": self.recall,
            "control_recall": self.control_recall,
        }

    def checks(self) -> dict[str, bool]:
        """What ``repro scrub --assert-resolved`` demands."""
        chain = self.event_chain()
        links = ("bit_flip", "corruption_detected", "scrub_heal", "repair")
        return {
            "every flip detected":
                self.corruptions_detected >= len(self.flips) > 0,
            "heals requested": self.heals_requested > 0,
            "post-run audit clean": self.unhealed == 0,
            "no wrong answers": not self.wrong_answers,
            "event log shows flip -> detect -> heal -> repair":
                all(kind in chain for kind in links)
                and chain.index("bit_flip")
                < chain.index("corruption_detected")
                < chain.index("scrub_heal"),
        }


def run_scrub_scenario(
    replication: int = 2,
    group_count: int = 2,
    group_size: int = 3,
    database_size: int = 12,
    probe_count: int = 6,
    flip_count: int = 2,
    seed: int = 0,
) -> ScrubScenarioResult:
    """Inject silent bit rot, scrub it out, and prove no query ever served
    the rotted bytes; see the module docstring."""
    if flip_count < 1:
        raise ValueError(f"flip_count must be >= 1, got {flip_count}")
    control, mendel, probes, expected = twin_deployments(
        seed, database_size, probe_count, replication=replication,
        group_count=group_count, group_size=group_size,
    )

    # Victim selection is deterministic: the first durable block of the
    # first node of each group, round-robin until flip_count is reached.
    flips: list[tuple[str, int]] = []
    groups = mendel.index.topology.groups
    for i in range(flip_count):
        group = groups[i % len(groups)]
        node = group.nodes[(i // len(groups)) % len(group.nodes)]
        manifest = node.durable.manifest_ids()
        if not manifest:
            continue
        flips.append((node.node_id, manifest[i % len(manifest)]))

    # Leave room after the last flip for a full scrub cycle per group plus
    # the chained heal repairs to drain.
    horizon = FLIP_AT + SCRUB_INTERVAL * (len(groups) * 3 + 4)
    schedule = FaultSchedule(
        events=tuple(
            FaultEvent.bit_flip(FLIP_AT, node_id, block=block_id, bit=3 + i)
            for i, (node_id, block_id) in enumerate(flips)
        ),
        seed=seed,
        scrub_interval=SCRUB_INTERVAL,
        horizon=horizon,
    )
    run = drive(
        mendel, probes, "scrub", seed, faults=schedule,
        arrival_interval=horizon / (probe_count + 1),
    )
    control_reports = control.engine.run_batch(probes, PARAMS)

    # Post-run audit: a detect-only scrub pass must come back clean.
    audit = mendel.index.scrub(heal=False)
    return ScrubScenarioResult(
        **vars(run),
        flips=flips,
        control_reports=control_reports,
        wrong_answers=_differing(probes, run.reports, control_reports),
        unhealed=len(audit.findings),
        recall=probe_recall(run.reports, expected),
        control_recall=probe_recall(control_reports, expected),
    )
