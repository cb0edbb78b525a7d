"""Tests for anchor aggregation (repro.core.aggregate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.result import Anchor
from repro.bench.workloads import FamilySpec
from repro.core.aggregate import bin_by_sequence, merge_anchors, merge_same_diagonal
from repro.core.params import QueryParams
from repro.scenario import build_deployment
from repro.seq.mutate import mutate_to_identity


def anchor(seq="s1", qs=0, diag=0, score=10.0, length=8):
    return Anchor(
        seq_id=seq, query_start=qs, query_end=qs + length,
        subject_start=qs + diag, subject_end=qs + length + diag, score=score,
    )


anchors_strategy = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2", "s3"]),
        st.integers(0, 60),
        st.integers(-5, 5),
        st.floats(1.0, 50.0),
    ).map(lambda t: anchor(seq=t[0], qs=t[1], diag=t[2], score=t[3])),
    max_size=25,
)


class TestBinBySequence:
    def test_groups_and_sorts(self):
        anchors = [
            anchor("s2", qs=5),
            anchor("s1", qs=9),
            anchor("s1", qs=1),
        ]
        bins = bin_by_sequence(anchors)
        assert set(bins) == {"s1", "s2"}
        assert [a.query_start for a in bins["s1"]] == [1, 9]

    def test_empty(self):
        assert bin_by_sequence([]) == {}


class TestMergeSameDiagonal:
    def test_chain_merge(self):
        chain = [anchor(qs=0), anchor(qs=4), anchor(qs=10)]
        merged = merge_same_diagonal(chain)
        assert len(merged) == 1
        assert merged[0].query_start == 0
        assert merged[0].query_end == 18

    def test_disjoint_kept(self):
        merged = merge_same_diagonal([anchor(qs=0), anchor(qs=20)])
        assert len(merged) == 2

    def test_empty(self):
        assert merge_same_diagonal([]) == []


class TestMergeAnchors:
    def test_cross_sequence_isolation(self):
        merged = merge_anchors([anchor("s1", qs=0), anchor("s2", qs=0)])
        assert len(merged) == 2

    def test_cross_diagonal_isolation(self):
        merged = merge_anchors([anchor(qs=0, diag=0), anchor(qs=0, diag=3)])
        assert len(merged) == 2

    def test_deterministic_order(self):
        a = [anchor("s2", qs=0), anchor("s1", qs=4), anchor("s1", qs=0, diag=2)]
        once = merge_anchors(a)
        twice = merge_anchors(list(reversed(a)))
        assert once == twice

    @settings(max_examples=50)
    @given(anchors_strategy)
    def test_idempotent(self, anchors):
        once = merge_anchors(anchors)
        assert merge_anchors(once) == once

    @settings(max_examples=50)
    @given(anchors_strategy, st.integers(0, 20))
    def test_two_stage_equals_one_stage(self, anchors, split):
        """The property the distributed aggregation relies on: merging per
        group and then merging the group results equals one global merge."""
        split = min(split, len(anchors))
        stage1 = merge_anchors(anchors[:split]) + merge_anchors(anchors[split:])
        assert merge_anchors(stage1) == merge_anchors(anchors)

    @settings(max_examples=50)
    @given(anchors_strategy)
    def test_merged_anchors_cover_inputs(self, anchors):
        merged = merge_anchors(anchors)
        for original in anchors:
            covering = [
                m
                for m in merged
                if m.seq_id == original.seq_id
                and m.diagonal == original.diagonal
                and m.query_start <= original.query_start
                and m.query_end >= original.query_end
            ]
            assert covering, f"anchor {original} lost in merge"

    @settings(max_examples=50)
    @given(anchors_strategy)
    def test_no_overlaps_remain(self, anchors):
        merged = merge_anchors(anchors)
        for i, a in enumerate(merged):
            for b in merged[i + 1 :]:
                assert not a.overlaps(b)


class TestSGate:
    """The gapped pass admits an anchor whose density reaches ``S``; a merge
    keeps its best part's density, not the union span's."""

    @settings(max_examples=50)
    @given(anchors_strategy, st.floats(0.0, 10.0))
    def test_a_merge_is_eligible_when_a_part_is(self, anchors, gate):
        for original in anchors:
            if original.score / original.length < gate:
                continue
            [covering] = [
                m for m in merge_anchors(anchors)
                if m.seq_id == original.seq_id
                and m.diagonal == original.diagonal
                and m.query_start <= original.query_start < m.query_end
            ]
            assert covering.density >= gate

    def test_merge_keeps_the_best_part_density(self):
        dense, loose = anchor(qs=0, score=16.0), anchor(qs=6, score=10.0, length=20)
        merged = dense.merge(loose)
        assert merged.score / merged.length < 1.0
        assert merged.density == 2.0 == merged.merge(anchor(qs=20)).density

    def test_a_diluted_source_is_still_extended(self):
        """A 50 %-identity mutant whose source's only anchor on its diagonal
        is a merge of touching parts: the union's density falls below ``S``
        (1.0), a part's does not, and the source is reported.  Gating on
        the union dropped it."""
        params = QueryParams(k=8, n=8, i=0.5, c=0.5)
        mendel = build_deployment(
            2, FamilySpec(families=6, members_per_family=4, length=150),
            group_count=2, group_size=2,
        )
        source = mendel.index.database.records[14]
        query = mutate_to_identity(source, 0.5, rng=2014, seq_id="diluted")
        engine, seen = mendel.engine, []
        inner = engine._gapped_pass

        def spy(query, merged, params, matrix):
            seen.extend(merged)
            return inner(query, merged, params, matrix)

        engine._gapped_pass = spy
        try:
            report = mendel.query(query, params)
        finally:
            del engine._gapped_pass
        diluted = [a for a in seen if a.seq_id == source.seq_id
                   and a.score / a.length < params.S <= a.density]
        assert diluted
        assert source.seq_id in {a.subject_id for a in report.alignments}
