"""mpiBLAST-style distributed BLAST (paper section II-B/II-C).

The related work Mendel positions against: mpiBLAST "parallelize[s] the
BLAST algorithm across multiple processes.  The BLAST database is
distributed onto each of the processing nodes.  BLAST searches are then run
on each segment in parallel and subsequently aggregating results", with
"superlinear speedups in some cases" — the superlinearity coming from
database segments fitting in worker memory where the monolithic database
pages.

:class:`DistributedBlast` reproduces that architecture over the same
simulated hardware classes as the Mendel cluster: the database is
partitioned into size-balanced segments, each worker runs the full
:class:`~repro.blast.engine.BlastEngine` pipeline on its segment, results
merge at a coordinator with E-values corrected to the full database size
(the standard effective-search-space adjustment), and the modelled
turnaround is the slowest worker plus scatter/gather costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.align.result import Alignment
from repro.blast.engine import BlastConfig, BlastEngine, BlastReport, BlastStats
from repro.cluster.node import HP_DL160, NodeProfile, SUNFIRE_X4100
from repro.seq.records import SequenceRecord, SequenceSet
from repro.util.validation import check_positive

_LAN_LATENCY = 200e-6
_BANDWIDTH = 1e8
_RESULT_BYTES = 120


def partition_database(database: SequenceSet, workers: int) -> list[SequenceSet]:
    """Size-balanced partition: longest-processing-time greedy assignment
    of sequences to *workers* segments (mpiBLAST's database segmentation)."""
    check_positive("workers", workers)
    if workers > len(database):
        workers = max(1, len(database))
    segments: list[list[SequenceRecord]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for record in sorted(database, key=len, reverse=True):
        target = loads.index(min(loads))
        segments[target].append(record)
        loads[target] += len(record)
    return [
        SequenceSet(alphabet=database.alphabet, records=segment)
        for segment in segments
    ]


@dataclass
class DistributedBlastReport(BlastReport):
    """Per-query result plus worker-level accounting."""

    worker_turnarounds: tuple[float, ...] = ()

    @property
    def makespan_worker(self) -> int:
        """Index of the straggler worker."""
        if not self.worker_turnarounds:
            raise ValueError("no workers recorded")
        return max(
            range(len(self.worker_turnarounds)),
            key=lambda i: self.worker_turnarounds[i],
        )


class DistributedBlast:
    """A fixed pool of BLAST workers over a segmented database."""

    def __init__(
        self,
        database: SequenceSet,
        workers: int = 4,
        config: BlastConfig | None = None,
        heterogeneous: bool = True,
    ) -> None:
        if len(database) == 0:
            raise ValueError("cannot search an empty database")
        check_positive("workers", workers)
        self.database = database
        self.config = config or BlastConfig()
        self.segments = partition_database(database, workers)
        self.engines = [
            BlastEngine(segment, self.config) for segment in self.segments
        ]
        profiles = (HP_DL160, SUNFIRE_X4100)
        self.profiles: list[NodeProfile] = [
            profiles[i % 2] if heterogeneous else HP_DL160
            for i in range(len(self.engines))
        ]
        self.db_residues = database.total_residues

    def search(self, query: SequenceRecord) -> DistributedBlastReport:
        """Scatter the query, search every segment, gather and merge.

        E-values are recomputed against the *full* database size so the
        merged ranking is statistically equivalent to a monolithic search
        (mpiBLAST's effective-search-space correction).
        """
        worker_reports: list[BlastReport] = []
        worker_times: list[float] = []
        for engine, profile in zip(self.engines, self.profiles):
            report = engine.search(query, profile=profile)
            worker_reports.append(report)
            scatter = _LAN_LATENCY + query.codes.nbytes / _BANDWIDTH
            gather = _LAN_LATENCY + (
                len(report.alignments) * _RESULT_BYTES / _BANDWIDTH
            )
            worker_times.append(scatter + report.turnaround + gather)

        merged: list[Alignment] = []
        stats = BlastStats()
        for engine, report in zip(self.engines, worker_reports):
            stats.query_words = max(stats.query_words, report.stats.query_words)
            stats.neighborhood_words = max(
                stats.neighborhood_words, report.stats.neighborhood_words
            )
            stats.seed_hits += report.stats.seed_hits
            stats.extensions += report.stats.extensions
            stats.gapped_extensions += report.stats.gapped_extensions
            stats.extension_columns += report.stats.extension_columns
            stats.work_units += report.stats.work_units
            scale = self.db_residues / max(1, engine.db_residues)
            for alignment in report.alignments:
                corrected = min(1e300, alignment.evalue * scale)
                if corrected > self.config.evalue_threshold:
                    continue
                merged.append(
                    Alignment(
                        query_id=alignment.query_id,
                        subject_id=alignment.subject_id,
                        query_start=alignment.query_start,
                        query_end=alignment.query_end,
                        subject_start=alignment.subject_start,
                        subject_end=alignment.subject_end,
                        score=alignment.score,
                        bit_score=alignment.bit_score,
                        evalue=corrected,
                        identity=alignment.identity,
                    )
                )
        merged.sort(key=lambda a: (a.evalue, -a.score))

        # Coordinator merge cost: a pass over the gathered hits.
        merge_seconds = len(merged) * 1e-6
        turnaround = (max(worker_times) if worker_times else 0.0) + merge_seconds
        return DistributedBlastReport(
            query_id=query.seq_id,
            alignments=merged,
            stats=stats,
            turnaround=turnaround,
            worker_turnarounds=tuple(worker_times),
        )
