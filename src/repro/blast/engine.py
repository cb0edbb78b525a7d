"""The BLAST baseline: word-seeded seed-and-extend on a single machine.

Implements the published BLAST algorithm (Altschul et al. 1990; gapped pass
per Altschul et al. 1997) that the paper benchmarks Mendel against:

1. tokenise the query into k-letter words and generate the neighbourhood of
   each (words scoring >= ``word_threshold`` — "probable variants");
2. scan the database word table for **exact matches** to any neighbourhood
   word;
3. apply the two-hit rule (two non-overlapping hits on the same diagonal
   within ``two_hit_window``) to trigger ungapped X-drop extension;
4. keep High-scoring Segment Pairs above the gapped trigger and run a
   banded gapped extension;
5. assign Karlin–Altschul E-values, filter, deduplicate, rank.

Besides the real results, the engine counts its *work units* (word lookups,
seed hits, extension columns) so the evaluation can model single-machine
turnaround on the same hardware scale as the simulated cluster nodes —
giving the machine-independent cost curves of Fig. 6a/6b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.align.gapped import banded_extend, diagonal_identity
from repro.align.result import Alignment
from repro.align.stats import KarlinAltschulParams, karlin_altschul
from repro.align.ungapped import UngappedExtension, batch_extent
from repro.blast.lookup import WordLookup
from repro.blast.words import query_neighborhoods
from repro.cluster.node import NodeProfile, HP_DL160
from repro.seq.alphabet import Alphabet
from repro.seq.matrices import dna_matrix, named_matrix
from repro.seq.records import SequenceRecord, SequenceSet


@dataclass
class BlastConfig:
    """Engine parameters (NCBI-style defaults per alphabet)."""

    word_length: int | None = None  # None -> 3 (protein) / 11 (DNA)
    word_threshold: float = 11.0
    two_hit: bool = True
    two_hit_window: int = 40
    x_drop_ungapped: float = 7.0
    x_drop_gapped: float = 25.0
    gap_open: float = 11.0
    gap_extend: float = 1.0
    gapped_trigger_bits: float = 22.0
    evalue_threshold: float = 10.0
    bandwidth: int = 8
    matrix_name: str = "BLOSUM62"
    #: single-machine memory capacity in residues; when the database exceeds
    #: it, the out-of-core fraction of the scan pays ``io_penalty`` per work
    #: unit.  Models the paper's observation that BLAST "comes to a halt"
    #: once the database stops being memory resident (section VI-C).
    #: ``None`` disables the wall (infinite memory).
    memory_capacity_residues: int | None = None
    io_penalty: float = 40.0

    def resolved_word_length(self, alphabet: Alphabet) -> int:
        if self.word_length is not None:
            return self.word_length
        return 3 if alphabet.name == "protein" else 11


@dataclass
class BlastStats:
    """Work accounting for one search."""

    query_words: int = 0
    neighborhood_words: int = 0
    seed_hits: int = 0
    extensions: int = 0
    gapped_extensions: int = 0
    extension_columns: int = 0
    work_units: float = 0.0

    def charge(self, units: float) -> None:
        self.work_units += units


@dataclass
class BlastReport:
    query_id: str
    alignments: list[Alignment]
    stats: BlastStats
    turnaround: float = 0.0  # modelled single-machine seconds

    def best(self) -> Alignment | None:
        return self.alignments[0] if self.alignments else None

    def subject_ids(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for alignment in self.alignments:
            if alignment.subject_id not in seen:
                seen.add(alignment.subject_id)
                out.append(alignment.subject_id)
        return out


class BlastEngine:
    """A database-bound BLAST searcher.

    Build once per database (the word table is the expensive part), then
    call :meth:`search` per query.
    """

    def __init__(self, database: SequenceSet, config: BlastConfig | None = None) -> None:
        if len(database) == 0:
            raise ValueError("cannot search an empty database")
        self.database = database
        self.config = config or BlastConfig()
        self.alphabet = database.alphabet
        self.k = self.config.resolved_word_length(self.alphabet)
        if self.alphabet.name == "dna" and self.config.matrix_name.lower() == "blosum62":
            self.matrix = dna_matrix().astype(np.float64)
        else:
            self.matrix = named_matrix(self.config.matrix_name).astype(np.float64)
        self.lookup = WordLookup(database, self.k)
        self._records = list(database)
        # Flat concatenation of all subject codes: lets the ungapped pass
        # extend every seed with batched (structure-of-arrays) vector ops.
        lengths = np.array([len(r) for r in self._records], dtype=np.int64)
        self._seq_offsets = np.concatenate(([0], np.cumsum(lengths)))
        self._concat = (
            np.concatenate([r.codes for r in self._records])
            if self._records
            else np.zeros(0, dtype=np.uint8)
        )
        self.ka: KarlinAltschulParams = karlin_altschul(
            self.matrix, database.residue_frequencies()
        )
        self.db_residues = database.total_residues

    # -- main entry ---------------------------------------------------------

    def search(self, query: SequenceRecord, profile: NodeProfile = HP_DL160) -> BlastReport:
        """Run the full pipeline for *query*.

        ``profile`` calibrates the modelled turnaround so BLAST and the
        simulated Mendel nodes are charged on the same hardware scale.
        """
        if query.alphabet.name != self.alphabet.name:
            raise ValueError(
                f"query alphabet {query.alphabet.name!r} does not match the "
                f"database alphabet {self.alphabet.name!r}"
            )
        config = self.config
        stats = BlastStats()

        neighborhoods = query_neighborhoods(
            query.codes,
            self.k,
            self.matrix,
            config.word_threshold,
            self.alphabet,
            exact_only=self.alphabet.name == "dna",
        )
        stats.query_words = len(neighborhoods)
        stats.neighborhood_words = sum(n.word_codes.shape[0] for n in neighborhoods)
        # Word generation cost: one matrix row pass per query word.
        stats.charge(stats.neighborhood_words * 0.1 + stats.query_words)

        # Seed collection: (seq_index, diagonal) -> hits.
        seeds = self._collect_seeds(neighborhoods, stats)

        hsps = self._ungapped_pass(query, seeds, stats)
        alignments = self._gapped_pass(query, hsps, stats)

        per_op = profile.seconds_per_eval / max(1, self.k)
        turnaround = stats.work_units * per_op / profile.speed_factor
        capacity = config.memory_capacity_residues
        if capacity is not None and self.db_residues > capacity:
            # The fraction of the scan that misses memory pays the I/O
            # penalty; the resident fraction runs at full speed.
            miss_fraction = 1.0 - capacity / self.db_residues
            turnaround *= 1.0 + config.io_penalty * miss_fraction
        return BlastReport(
            query_id=query.seq_id,
            alignments=alignments,
            stats=stats,
            turnaround=turnaround,
        )

    # -- stages -----------------------------------------------------------------

    def _collect_seeds(self, neighborhoods, stats: BlastStats):
        """Two-hit (or one-hit) seed selection, vectorised.

        All hits are gathered into flat arrays, lex-sorted by
        ``(sequence, diagonal, query position)``; a two-hit trigger is a
        consecutive same-diagonal pair within ``two_hit_window``.  At most
        one seed (the first trigger) is kept per (sequence, diagonal).
        Returns ``(seq_index, query_pos, subject_pos)`` triples.
        """
        config = self.config
        q_parts: list[np.ndarray] = []
        seq_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        for neighborhood in neighborhoods:
            pairs = self.lookup.lookup(neighborhood.word_codes)
            stats.seed_hits += pairs.shape[0]
            stats.charge(neighborhood.word_codes.shape[0])  # table probes
            stats.charge(pairs.shape[0])  # hit processing
            if pairs.shape[0]:
                q_parts.append(
                    np.full(pairs.shape[0], neighborhood.position, dtype=np.int64)
                )
                seq_parts.append(pairs[:, 0])
                pos_parts.append(pairs[:, 1])
        if not q_parts:
            return []
        q = np.concatenate(q_parts)
        seq = np.concatenate(seq_parts)
        s_pos = np.concatenate(pos_parts)
        diag = s_pos - q

        order = np.lexsort((q, diag, seq))
        q, seq, s_pos, diag = q[order], seq[order], s_pos[order], diag[order]

        same_key = np.zeros(q.shape[0], dtype=bool)
        if q.shape[0] > 1:
            same_key[1:] = (seq[1:] == seq[:-1]) & (diag[1:] == diag[:-1])
        group_id = np.cumsum(~same_key) - 1

        if config.two_hit:
            trigger = np.zeros(q.shape[0], dtype=bool)
            if q.shape[0] > 1:
                dq = q[1:] - q[:-1]
                trigger[1:] = same_key[1:] & (dq > 0) & (dq <= config.two_hit_window)
        else:
            trigger = ~same_key  # first hit of every (seq, diagonal)

        trig_idx = np.flatnonzero(trigger)
        if trig_idx.size == 0:
            return []
        # Keep only the first trigger of each (seq, diagonal) group.
        groups = group_id[trig_idx]
        first_of_group = np.concatenate(([True], groups[1:] != groups[:-1]))
        trig_idx = trig_idx[first_of_group]
        return [
            (int(seq[i]), int(q[i]), int(s_pos[i])) for i in trig_idx
        ]

    def _ungapped_pass(self, query, seeds, stats: BlastStats):
        """Batched X-drop ungapped extension of every seed; keeps HSPs above
        the gapped trigger score.

        All seeds extend together through :func:`batch_extent` over the flat
        database concatenation — one set of vector ops per 64-residue chunk
        instead of one Python call per seed.
        """
        config = self.config
        trigger_raw = (
            config.gapped_trigger_bits * np.log(2.0) + np.log(self.ka.k)
        ) / self.ka.lam
        if not seeds:
            return []

        seq_idx = np.array([s[0] for s in seeds], dtype=np.int64)
        q_pos = np.array([s[1] for s in seeds], dtype=np.int64)
        s_local = np.array([s[2] for s in seeds], dtype=np.int64)
        s_global = self._seq_offsets[seq_idx] + s_local
        seq_len = self._seq_offsets[seq_idx + 1] - self._seq_offsets[seq_idx]
        k = self.k
        q_len = len(query)
        qc = query.codes

        # Seed scores (vectorised gather over the k seed columns).
        seed_scores = np.zeros(seq_idx.shape[0], dtype=np.float64)
        for col in range(k):
            seed_scores += self.matrix[qc[q_pos + col], self._concat[s_global + col]]

        right_limits = np.minimum(q_len - (q_pos + k), seq_len - (s_local + k))
        right_keep, right_gain = batch_extent(
            qc, self._concat, q_pos + k, s_global + k, right_limits,
            self.matrix, config.x_drop_ungapped, step=1,
        )
        left_limits = np.minimum(q_pos, s_local)
        left_keep, left_gain = batch_extent(
            qc, self._concat, q_pos - 1, s_global - 1, left_limits,
            self.matrix, config.x_drop_ungapped, step=-1,
        )

        scores = seed_scores + right_gain + left_gain
        spans = k + right_keep + left_keep
        stats.extensions += seq_idx.shape[0]
        stats.extension_columns += int(spans.sum())
        stats.charge(float(spans.sum()))

        hsps: list[tuple[int, UngappedExtension]] = []
        for i in np.flatnonzero(scores >= trigger_raw):
            hsps.append(
                (
                    int(seq_idx[i]),
                    UngappedExtension(
                        query_start=int(q_pos[i] - left_keep[i]),
                        query_end=int(q_pos[i] + k + right_keep[i]),
                        subject_start=int(s_local[i] - left_keep[i]),
                        subject_end=int(s_local[i] + k + right_keep[i]),
                        score=float(scores[i]),
                    ),
                )
            )
        return hsps

    def _gapped_pass(self, query, hsps, stats: BlastStats) -> list[Alignment]:
        config = self.config
        raw: list[Alignment] = []
        covered: dict[int, list[tuple[int, int]]] = {}
        for seq_index, hsp in sorted(
            hsps, key=lambda item: -item[1].score
        ):
            subject = self._records[seq_index]
            mid_q = (hsp.query_start + hsp.query_end) // 2
            mid_s = (hsp.subject_start + hsp.subject_end) // 2
            spans = covered.setdefault(seq_index, [])
            if any(lo <= mid_q < hi for lo, hi in spans):
                continue
            ext = banded_extend(
                query.codes,
                subject.codes,
                self.matrix,
                seed_query=mid_q,
                seed_subject=mid_s,
                bandwidth=config.bandwidth,
                gap_open=config.gap_open,
                gap_extend=config.gap_extend,
                x_drop=config.x_drop_gapped,
            )
            stats.gapped_extensions += 1
            span = ext.query_end - ext.query_start
            stats.charge(span * (2 * config.bandwidth + 1))
            evalue = self.ka.evalue(ext.score, len(query), self.db_residues)
            if evalue > config.evalue_threshold:
                continue
            spans.append((ext.query_start, ext.query_end))
            raw.append(
                Alignment(
                    query_id=query.seq_id,
                    subject_id=subject.seq_id,
                    query_start=ext.query_start,
                    query_end=ext.query_end,
                    subject_start=ext.subject_start,
                    subject_end=ext.subject_end,
                    score=ext.score,
                    bit_score=self.ka.bit_score(ext.score),
                    evalue=evalue,
                    identity=diagonal_identity(query.codes, subject.codes, ext),
                )
            )
        raw.sort(key=lambda a: (a.evalue, -a.score))
        return raw
