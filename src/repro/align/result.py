"""Alignment result types shared by Mendel and the BLAST baseline."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Anchor:
    """An ungapped matching region between a query and a subject sequence.

    ``diagonal`` is the paper's definition: the difference between the
    subject and query start positions; anchors on the same diagonal of the
    same subject can be merged and gap-extended together.

    ``density`` is the best ``score / length`` of the anchors merged into
    this one (an unmerged anchor's own): the gapped pass admits an anchor
    when it reaches ``S``, so touching neighbours on a diagonal never dilute
    a dense part below the gate.
    """

    seq_id: str
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    score: float
    density: float | None = None

    def __post_init__(self) -> None:
        if self.query_end < self.query_start:
            raise ValueError(
                f"query_end {self.query_end} < query_start {self.query_start}"
            )
        if self.subject_end < self.subject_start:
            raise ValueError(
                f"subject_end {self.subject_end} < subject_start {self.subject_start}"
            )
        if (self.query_end - self.query_start) != (
            self.subject_end - self.subject_start
        ):
            raise ValueError("anchors are ungapped: spans must be equal length")
        if self.density is None:
            object.__setattr__(self, "density", self.score / max(1, self.length))

    @property
    def diagonal(self) -> int:
        return self.subject_start - self.query_start

    @property
    def length(self) -> int:
        return self.query_end - self.query_start

    def overlaps(self, other: "Anchor") -> bool:
        """True when *other* is on the same subject+diagonal and the query
        spans touch or overlap."""
        return (
            self.seq_id == other.seq_id
            and self.diagonal == other.diagonal
            and self.query_start <= other.query_end
            and other.query_start <= self.query_end
        )

    def merge(self, other: "Anchor") -> "Anchor":
        """Union of two overlapping same-diagonal anchors.

        The merged score is the maximum of the two (a conservative bound —
        the true union score is recomputed during gapped extension), and so
        is the merged density.
        """
        if not self.overlaps(other):
            raise ValueError(f"cannot merge non-overlapping anchors {self} / {other}")
        query_start = min(self.query_start, other.query_start)
        query_end = max(self.query_end, other.query_end)
        return Anchor(
            seq_id=self.seq_id,
            query_start=query_start,
            query_end=query_end,
            subject_start=query_start + self.diagonal,
            subject_end=query_end + self.diagonal,
            score=max(self.score, other.score),
            density=max(self.density, other.density),
        )


@dataclass(frozen=True, slots=True)
class Alignment:
    """A scored (possibly gapped) local alignment, ranked by E-value."""

    query_id: str
    subject_id: str
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    score: float
    bit_score: float
    evalue: float
    identity: float = 0.0
    gaps: int = 0

    def __post_init__(self) -> None:
        if self.evalue < 0:
            raise ValueError(f"evalue must be non-negative, got {self.evalue}")
        if not 0.0 <= self.identity <= 1.0:
            raise ValueError(f"identity must be within [0, 1], got {self.identity}")

    @property
    def query_span(self) -> int:
        return self.query_end - self.query_start

    @property
    def subject_span(self) -> int:
        return self.subject_end - self.subject_start

    def brief(self) -> str:
        """One-line report row (used by examples and the bench harness)."""
        return (
            f"{self.query_id}\t{self.subject_id}\t"
            f"q[{self.query_start}:{self.query_end}]\t"
            f"s[{self.subject_start}:{self.subject_end}]\t"
            f"score={self.score:.0f}\tbits={self.bit_score:.1f}\t"
            f"E={self.evalue:.2e}\tid={self.identity:.2f}"
        )
