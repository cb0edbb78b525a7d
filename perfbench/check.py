"""Correctness checks shared by the four workloads.

A wrong answer counts as a failed operation: every check feeds one
:class:`Tally`, whose ``failed`` count becomes the run's ``failed`` and
``failed_share`` and makes ``run`` exit non-zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)
        print(f"perfbench: FAILED {reason}", file=sys.stderr)

    def expect(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def signature(report) -> tuple:
    """What an answer promises to keep identical across serving paths,
    storage tiers and recovery: subject, coordinates, score, e-value."""
    return tuple(
        (a.subject_id, a.query_start, a.query_end, a.subject_start,
         a.subject_end, round(a.score, 6), round(a.evalue, 9))
        for a in report.alignments
    )


def wire_signature(response: dict) -> tuple:
    """:func:`signature` of a JSON-lines reply."""
    return tuple(
        (a["subject_id"], a["query_start"], a["query_end"], a["subject_start"],
         a["subject_end"], round(a["score"], 6), round(a["evalue"], 9))
        for a in response["alignments"]
    )


def source_pairs_found(read, subject_ids: list[str]) -> tuple[int, int]:
    """``(found, total)`` over the read's (read, source-segment) pairs: a
    pair is found when its source id is among the reported subjects."""
    subjects = set(subject_ids)
    found = sum(1 for source_id, _, _ in read.sources if source_id in subjects)
    return found, len(read.sources)


def homolog_found(read, subject_ids: list[str], top: int = 5) -> tuple[int, int]:
    """``(found, 1)``: is the mutant's source among the first *top* subjects."""
    return int(read.sources[0][0] in subject_ids[:top]), 1


def check_direct_report(tally: Tally, read, report) -> None:
    """A direct ``Mendel.query`` must answer completely and, since every
    generated query has a relative in the database, must align to something."""
    tally.expect(
        not report.degraded and len(report.alignments) > 0,
        f"{read.record.seq_id}: degraded={report.degraded}, "
        f"{len(report.alignments)} alignments",
    )


def check_same_answer(tally: Tally, what: str, got: tuple, reference: tuple) -> None:
    tally.expect(got == reference, f"{what}: answer differs from the reference")
