"""Edge-case tests for the query pipeline (dead groups, minimal queries,
DNA radii, extreme parameters)."""

import numpy as np
import pytest

from repro.core import Mendel, MendelConfig, QueryParams
from repro.core.query import QueryEngine
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from repro.seq.records import SequenceRecord


@pytest.fixture()
def small():
    db = random_set(count=10, length=60, alphabet=PROTEIN, rng=601,
                    id_prefix="s")
    mendel = Mendel.build(
        db, MendelConfig(group_count=2, group_size=2, sample_size=64, seed=61)
    )
    return mendel, db


class TestMinimalQueries:
    def test_query_exactly_segment_length(self, small):
        mendel, db = small
        w = mendel.index.segment_length
        probe = SequenceRecord(
            seq_id="tiny", codes=db.records[0].codes[:w].copy(), alphabet=PROTEIN
        )
        report = mendel.query(probe, QueryParams(k=4, n=4, i=0.9))
        assert report.stats.windows == 1
        assert report.alignments  # exact window exists in the database

    def test_one_below_segment_length_rejected(self, small):
        mendel, db = small
        w = mendel.index.segment_length
        probe = SequenceRecord(
            seq_id="too-short", codes=db.records[0].codes[: w - 1].copy(),
            alphabet=PROTEIN,
        )
        with pytest.raises(ValueError, match="shorter"):
            mendel.query(probe)


class TestExtremeParameters:
    def test_e_zero_reports_nothing(self, small):
        mendel, db = small
        probe = mutate_to_identity(db.records[1], 0.9, rng=1, seq_id="p")
        report = mendel.query(probe, QueryParams(k=4, n=4, E=0.0))
        assert report.alignments == []

    def test_s_huge_blocks_gapped_pass(self, small):
        mendel, db = small
        probe = mutate_to_identity(db.records[1], 0.9, rng=1, seq_id="p")
        report = mendel.query(probe, QueryParams(k=4, n=4, S=1e6))
        assert report.stats.gapped_extensions == 0
        assert report.alignments == []

    def test_n_one_still_finds_exact(self, small):
        mendel, db = small
        probe = SequenceRecord("x", db.records[2].codes.copy(), PROTEIN)
        report = mendel.query(probe, QueryParams(k=4, n=1, i=0.9))
        assert report.alignments
        assert report.alignments[0].subject_id == db.records[2].seq_id

    def test_tolerance_zero_single_group_per_window(self, small, monkeypatch):
        """The walk's tolerance is derived, not a parameter; at zero the
        walk sends each window to exactly one group."""
        mendel, db = small
        monkeypatch.setattr(QueryEngine, "tolerance", lambda self, params: 0.0)
        probe = mutate_to_identity(db.records[3], 0.9, rng=2, seq_id="p")
        report = mendel.query(probe, QueryParams(k=4, n=4))
        assert {route.path for route in report.routes} == {"walk"}
        assert report.stats.subqueries_routed == report.stats.windows


class TestDeadCluster:
    def test_whole_group_down_query_still_completes(self, small):
        mendel, db = small
        for node in mendel.index.topology.group("g01").nodes:
            node.fail()
        probe = mutate_to_identity(db.records[4], 0.9, rng=3, seq_id="p")
        report = mendel.query(probe, QueryParams(k=4, n=4, i=0.7))
        # Must not crash; results may be partial depending on routing.
        assert report.stats.turnaround > 0

    def test_everything_down_returns_empty(self, small):
        mendel, db = small
        for node in mendel.index.topology.nodes:
            node.fail()
        probe = mutate_to_identity(db.records[4], 0.9, rng=3, seq_id="p")
        report = mendel.query(probe, QueryParams(k=4, n=4, i=0.7))
        assert report.alignments == []


class TestDnaRadius:
    def test_hamming_radius_is_mismatch_count(self):
        db = random_set(count=6, length=80, alphabet=DNA, rng=602)
        mendel = Mendel.build(
            db,
            MendelConfig(group_count=2, group_size=2, segment_length=16,
                         sample_size=64, seed=63),
        )
        # w=16, i=0.75 -> up to 4 mismatches -> Hamming radius exactly 4.
        assert mendel.engine.search_radius(QueryParams(i=0.75)) == 4.0
