"""Tests for the Mendel facade (repro.core.framework)."""

from dataclasses import fields

import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.core.query import QueryStats
from repro.seq import SequenceRecord
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from repro.seq.translate import STANDARD_CODE, six_frame_translations


class TestBuild:
    def test_build_properties(self, mendel, protein_db):
        assert mendel.node_count == 6
        w = mendel.index.segment_length
        assert mendel.block_count == sum(len(r) - w + 1 for r in protein_db)
        assert mendel.stats.block_count == mendel.block_count

    def test_default_config(self):
        db = random_set(count=6, length=60, alphabet=PROTEIN, rng=3)
        m = Mendel.build(db)
        assert m.node_count == MendelConfig().group_count * MendelConfig().group_size


class TestQueries:
    def test_query_text(self, mendel, protein_db):
        target = protein_db.records[0]
        report = mendel.query_text(target.text, QueryParams(k=4, n=4, i=0.9))
        assert report.alignments[0].subject_id == target.seq_id
        assert report.query_id == "query"

    def test_query_many(self, mendel, protein_db):
        probes = [
            mutate_to_identity(protein_db.records[i], 0.9, rng=i, seq_id=f"m{i}")
            for i in (0, 1)
        ]
        reports = mendel.query_many(probes, QueryParams(k=4, n=4))
        assert len(reports) == 2
        assert [r.query_id for r in reports] == ["m0", "m1"]

    def test_translated_stats_merge_every_field(self, mendel, protein_db):
        codon_of = {amino: codon for codon, amino in STANDARD_CODE.items()}
        dna = "".join(codon_of[ch] for ch in protein_db.records[3].text[:90])
        query = SequenceRecord.from_text("gene", dna, "dna")
        params = QueryParams(k=4, n=4, i=0.8)
        merged = mendel.query_translated(query, params).stats
        counts = [n for _stage, n in merged.funnel()]
        assert counts == sorted(counts, reverse=True) and counts[-1] > 0
        frames = [
            mendel.query(frame, params).stats
            for frame in six_frame_translations(query)
        ]
        assert len(frames) == 6
        additive = {f.name for f in fields(QueryStats)} - {
            "turnaround", "messages", "bytes_sent"
        }
        for name in sorted(additive):
            assert getattr(merged, name) == sum(
                getattr(stats, name) for stats in frames
            ), name
        assert merged.identity_pass > 0 and merged.groups_contacted > 0

    def test_load_fractions_exposed(self, mendel):
        fractions = mendel.load_fractions()
        assert len(fractions) == mendel.node_count


class TestInsert:
    def test_insert_then_query_finds_new_sequence(self):
        db = random_set(count=8, length=80, alphabet=PROTEIN, rng=21)
        m = Mendel.build(
            db, MendelConfig(group_count=2, group_size=2, sample_size=64, seed=3)
        )
        extra = random_set(count=1, length=80, alphabet=PROTEIN, rng=99,
                           id_prefix="late")
        m.insert(extra)
        probe = mutate_to_identity(extra.records[0], 0.95, rng=7, seq_id="lp")
        report = m.query(probe, QueryParams(k=4, n=4, i=0.7))
        assert report.alignments
        assert report.alignments[0].subject_id == "late-000000"


class TestRunState:
    """What rode a run (its chaos controller and health monitor) is returned
    with the run's reports; the engine keeps no last-run state, so a later
    query cannot change what an earlier batch reports."""

    def test_a_later_query_leaves_the_batch_report_alone(self):
        from repro.faults.schedule import FaultEvent, FaultSchedule

        db = random_set(count=12, length=90, alphabet=PROTEIN, rng=61,
                        id_prefix="rs")
        m = Mendel.build(db, MendelConfig(group_count=2, group_size=2,
                                          replication=2, sample_size=64,
                                          seed=5))
        victim = m.index.topology.groups[0].nodes[0].node_id
        schedule = FaultSchedule(events=[FaultEvent.crash(1e-5, victim)],
                                 seed=0)
        probes = [mutate_to_identity(db.records[i], 0.9, rng=i,
                                     seq_id=f"rp{i}") for i in range(2)]
        params = QueryParams(k=4, n=4, i=0.7)
        batch = m.query_under_faults(probes, schedule, params,
                                     arrival_interval=0.01)
        assert len(batch) == 2 and batch[0].query_id == "rp0"
        assert batch.monitor is not None and batch.chaos is not None
        assert batch.chaos.log, "the crash is on the batch's timeline"
        before = m.health_report(batch)
        assert {"cluster", "firing"} <= set(before)

        m.query(probes[0], params)

        assert m.health_report(batch) == before
        assert not hasattr(m.engine, "last_monitor")
        assert not hasattr(m.engine, "last_chaos")

    def test_a_plain_batch_carries_nothing(self, mendel, protein_db):
        probe = mutate_to_identity(protein_db.records[0], 0.9, rng=3,
                                   seq_id="plain")
        batch = mendel.engine.run_batch([probe], QueryParams(k=4, n=4))
        assert batch.chaos is None and batch.monitor is None
        assert set(mendel.health_report(batch)) == {"cluster"}
