"""Query parameters — Table I of the paper, plus framework configuration.

Table I defines the per-query knobs:

====  =========================================  ============
name  description                                type
====  =========================================  ============
k     sliding window step                        int(1..inf)
n     number of nearest neighbours to find       int(1..inf)
i     identity threshold                         float(0..1)
c     consecutivity score threshold              float(0..1)
M     scoring matrix                             string
S     score threshold for gapped extension       float(0..inf)
l     gapped alignment band width                int(0..inf)
E     expectation value threshold                float(0..inf)
====  =========================================  ============

:class:`QueryParams` carries exactly those eight, validated to those types
and ranges.  What the paper leaves implicit is not a parameter: the walk's
branching tolerance is derived from ``i`` (``QueryEngine.tolerance``), and
the gapped pass's X-drop, gap costs and per-subject budget are constants
beside it in :mod:`repro.core.query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.seq.matrices import named_matrix
from repro.util.validation import check_fraction, check_non_negative


@dataclass(frozen=True)
class QueryParams:
    """The paper's per-query parameter set (Table I)."""

    #: sliding window step over the query (subquery amplification control)
    k: int = 4
    #: number of nearest neighbours each node returns per subquery
    n: int = 8
    #: percent-identity threshold for candidate filtering
    i: float = 0.5
    #: consecutivity-score threshold for candidate filtering
    c: float = 0.5
    #: scoring matrix used for final alignment scoring
    M: str = "BLOSUM62"
    #: per-residue normalised anchor score required to trigger gapped extension
    S: float = 1.0
    #: gapped alignment band width (diagonals either side)
    l: int = 8
    #: expectation-value threshold for reporting
    E: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be int >= 1, got {self.k!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be int >= 1, got {self.n!r}")
        check_fraction("i", self.i)
        check_fraction("c", self.c)
        if not isinstance(self.M, str) or not self.M:
            raise ValueError(f"M must be a non-empty matrix name, got {self.M!r}")
        named_matrix(self.M)  # fail fast on unknown matrices
        check_non_negative("S", self.S)
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"l must be int >= 0, got {self.l!r}")
        check_non_negative("E", self.E)

    def cache_key(self) -> str:
        """A stable canonical string: equal searches produce equal keys.

        Normalises representational slack that dataclass equality preserves:
        matrix names are case-insensitive (``named_matrix`` lowercases), and
        numeric fields that validate as "number" may arrive as ``int`` or
        ``float`` (``S=1`` vs ``S=1.0``) — both spell the same search, so
        both canonicalise to the float repr.  Field order is fixed by the
        dataclass definition, so the key is stable across processes.
        """
        parts = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, bool):  # guard: bool is an int subclass
                canon = repr(value)
            elif isinstance(value, (int, float)):
                canon = repr(float(value))
            elif isinstance(value, str):
                canon = value.lower() if spec.name == "M" else value
            else:
                canon = repr(value)
            parts.append(f"{spec.name}={canon}")
        return ";".join(parts)

    @classmethod
    def table_rows(cls) -> list[tuple[str, str, str]]:
        """The (parameter, description, type) rows of Table I, for the
        bench harness to print."""
        return [
            ("k", "Sliding window step", "int(1..inf)"),
            ("n", "No. of nearest neighbors to find", "int(1..inf)"),
            ("i", "Identity threshold", "float(0..1)"),
            ("c", "Consecutivity score threshold", "float(0..1)"),
            ("M", "Scoring Matrix", "string"),
            ("S", "Score threshold for gapped extension", "float(0..inf)"),
            ("l", "Gapped alignment band width", "int(0..inf)"),
            ("E", "Expectation value threshold", "float(0..inf)"),
        ]


@dataclass(frozen=True)
class MendelConfig:
    """Framework-level (index-time) configuration.

    These are the user-configurable deployment knobs of section IV-C: group
    shape, indexed segment length, prefix-tree depth, and sampling.
    """

    #: indexed block length (the inverted-index window size)
    segment_length: int = 8
    #: number of storage groups
    group_count: int = 10
    #: nodes per group
    group_size: int = 5
    #: local vp-tree leaf bucket capacity
    bucket_capacity: int = 64
    #: vp-prefix tree cutoff depth; None applies the paper's half-depth rule
    prefix_depth: int | None = None
    #: sample size used to build the shared vp-prefix tree
    sample_size: int = 2048
    #: prefix-tree leaf bucket capacity (shapes achievable depth)
    prefix_bucket_capacity: int = 4
    #: mirror the paper's heterogeneous testbed (two hardware classes)
    heterogeneous: bool = True
    #: copies of each block within its group (1 = no replication; the
    #: fault-tolerance extension of section VII-B future work)
    replication: int = 1
    #: master seed for all derived randomness
    seed: int = 42

    def __post_init__(self) -> None:
        if self.segment_length < 2:
            raise ValueError(
                f"segment_length must be >= 2, got {self.segment_length}"
            )
        if self.group_count < 1 or self.group_size < 1:
            raise ValueError("group_count and group_size must be >= 1")
        if self.bucket_capacity < 1 or self.prefix_bucket_capacity < 1:
            raise ValueError("bucket capacities must be >= 1")
        if self.prefix_depth is not None and self.prefix_depth < 1:
            raise ValueError(f"prefix_depth must be >= 1, got {self.prefix_depth}")
        if self.sample_size < 2:
            raise ValueError(f"sample_size must be >= 2, got {self.sample_size}")
        if not 1 <= self.replication <= self.group_size:
            raise ValueError(
                f"replication must be in 1..group_size ({self.group_size}), "
                f"got {self.replication}"
            )
