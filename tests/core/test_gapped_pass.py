"""The round-scheduled gapped pass == the sequential pass it replaced.

``QueryEngine._gapped_pass`` extends, per *round*, every subject's next run
of anchors that cannot absorb one another, all of a round's anchors in one
``banded_extend`` call.  The reference below is
the loop it replaced — subject by subject, anchor by anchor, one one-anchor
``banded_extend`` call each — and must agree with it exactly: alignments (in
order), extensions counted, residue ops charged.  Probes are drawn from
``CHAOS_SEED`` (the CI matrix knob).
"""

import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.align import Alignment, Anchor, banded_extend, diagonal_identity
from repro.bench.workloads import FamilySpec
import repro.core.query as query_module
from repro.core.params import QueryParams
from repro.core.query import QueryEngine
from repro.scenario import build_deployment
from repro.seq.mutate import mutate_to_identity

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
BASE = QueryParams(k=8, n=8, i=0.5, c=0.5)


def sequential_gapped_pass(engine, query, merged, params, matrix):
    """``(((alignments, gapped_count), ops), fired)``: the pass one anchor
    at a time, and how often each of its rules decided something."""
    ka = engine.ka_params(params)
    db_len = max(1, engine.index.database.total_residues)
    fired = Counter()
    ops = 0.0
    gapped_count = 0
    raw = []
    by_subject = {}
    for anchor in merged:
        by_subject.setdefault(anchor.seq_id, []).append(anchor)
    for seq_id in sorted(by_subject):
        subject = engine.index.database[seq_id]
        covered = []
        per_subject = 0
        for anchor in sorted(by_subject[seq_id],
                             key=lambda a: (-a.score, a.query_start)):
            if anchor.density < params.S:
                fired["below_S"] += 1
                continue
            if per_subject >= query_module.MAX_GAPPED_PER_SUBJECT:
                fired["over_budget"] += 1
                break
            mid = (anchor.query_start + anchor.query_end) // 2
            if any(lo <= mid < hi and abs(anchor.diagonal - diag) <= params.l
                   for lo, hi, diag in covered):
                fired["absorbed"] += 1
                continue
            if params.l > 0:
                ext = banded_extend(
                    query.codes, subject.codes, matrix,
                    seed_query=min(max(mid, 0), len(query) - 1),
                    seed_subject=min(max(mid + anchor.diagonal, 0),
                                     len(subject) - 1),
                    bandwidth=params.l, gap_open=query_module.GAP_OPEN,
                    gap_extend=query_module.GAP_EXTEND,
                    x_drop=query_module.X_DROP,
                )
                ops += (ext.query_end - ext.query_start) * (2 * params.l + 1)
            else:
                ext = anchor
                ops += anchor.length
            gapped_count += 1
            per_subject += 1
            evalue = ka.evalue(ext.score, len(query), db_len)
            if evalue > params.E:
                fired["failed_E"] += 1
                continue
            covered.append((ext.query_start, ext.query_end, anchor.diagonal))
            raw.append(Alignment(
                query_id=query.seq_id, subject_id=seq_id,
                query_start=ext.query_start, query_end=ext.query_end,
                subject_start=ext.subject_start, subject_end=ext.subject_end,
                score=ext.score, bit_score=ka.bit_score(ext.score),
                evalue=evalue,
                identity=diagonal_identity(query.codes, subject.codes, ext),
            ))
    alignments = QueryEngine._dedupe_rank(raw)
    return ((alignments, gapped_count), ops), fired


@pytest.fixture(scope="module")
def family():
    return build_deployment(
        SEED, FamilySpec(families=6, members_per_family=4, length=120),
        group_count=2, group_size=2,
    )


@pytest.fixture(scope="module")
def passes(family):
    """``(report, query, merged anchors, matrix, the engine's result)`` of
    one query per identity class: what each run handed its gapped pass.
    Nothing upstream of the pass reads ``S``, ``l``, ``E`` or the budget, so
    the same anchors serve every parameter set below."""
    engine = family.engine
    records = family.index.database.records
    seen = []
    inner = engine._gapped_pass

    def spy(query, merged, params, matrix):
        result = inner(query, merged, params, matrix)
        seen.append((query, merged, matrix, result))
        return result

    engine._gapped_pass = spy
    try:
        reports = [
            family.query(
                mutate_to_identity(records[(SEED + 7 * n) % len(records)],
                                   identity, rng=SEED + 40 + n,
                                   seq_id=f"wave-{identity}"),
                BASE,
            )
            for n, identity in enumerate((0.9, 0.7, 0.5))
        ]
    finally:
        del engine._gapped_pass
    assert len(seen) == len(reports)
    return [(report, *capture) for report, capture in zip(reports, seen)]


class TestWaveSchedulingIsTheSequentialPass:
    def test_served_reports(self, family, passes):
        """The alignments and funnel counts a caller sees are the
        sequential pass's."""
        for report, query, merged, matrix, served in passes:
            want, _ = sequential_gapped_pass(
                family.engine, query, merged, BASE, matrix)
            assert served == want
            (alignments, gapped_count), _ = want
            assert report.alignments == alignments
            assert report.stats.gapped_extensions == gapped_count
            assert report.stats.alignments_reported == len(alignments)
        assert any(report.alignments for report, *_ in passes)

    # Each case is (query params, the pass's module constants to set).
    @pytest.mark.parametrize("params, rule", [
        ((BASE, {"MAX_GAPPED_PER_SUBJECT": 1}), "over_budget"),
        ((BASE, {"MAX_GAPPED_PER_SUBJECT": 2}), "over_budget"),
        ((replace(BASE, S=0.0), {"MAX_GAPPED_PER_SUBJECT": 4}), "absorbed"),
        ((replace(BASE, S=2.5), {}), "below_S"),
        # every extension fails E: budget is spent, nothing is covered
        ((replace(BASE, E=1e-300, S=0.0), {}), "failed_E"),
        ((replace(BASE, E=1e-12), {}), "failed_E"),
        ((replace(BASE, l=0), {}), None),
        ((replace(BASE, l=0, S=0.0), {"MAX_GAPPED_PER_SUBJECT": 2}),
         "over_budget"),
        ((replace(BASE, l=2),
          {"X_DROP": 8.0, "GAP_OPEN": 5.5, "GAP_EXTEND": 0.7}), None),
    ])
    def test_every_rule(self, family, passes, params, rule, monkeypatch):
        params, constants = params
        for name, value in constants.items():
            monkeypatch.setattr(query_module, name, value)
        fired = Counter()
        extended = 0
        for _, query, merged, matrix, _ in passes:
            want, tally = sequential_gapped_pass(
                family.engine, query, merged, params, matrix)
            fired += tally
            got = family.engine._gapped_pass(query, merged, params, matrix)
            assert got == want
            extended += got[0][1]
        assert extended > 0
        if rule is not None:
            assert fired[rule] > 0, fired

    def test_one_banded_call_per_round(self, family, passes, monkeypatch):
        """``repro.core.query.banded_extend`` is looked up as a module global
        (perfbench wraps that name) and called once per *round*, never with
        ``l = 0``.  A round extends nothing the sequential pass does not
        (its lanes add up to ``gapped_count``), and a query takes no more
        rounds than it took waves — one anchor per subject a call, as many
        calls as the busiest subject has extensions — and fewer somewhere."""
        import tests.core.test_gapped_pass as this_module

        lanes, extended, extend = [], Counter(), banded_extend
        monkeypatch.setattr(
            query_module, "banded_extend",
            lambda query, subjects, *args, **kw: (
                lanes.append(len(subjects))
                or extend(query, subjects, *args, **kw)),
        )
        # the sequential pass's calls, one per extension, by subject
        monkeypatch.setattr(
            this_module, "banded_extend",
            lambda query, subject, *args, **kw: (
                extended.update([id(subject)])
                or extend(query, subject, *args, **kw)),
        )
        fewer = 0
        for budget in (1, 2, 4):
            monkeypatch.setattr(query_module, "MAX_GAPPED_PER_SUBJECT", budget)
            for _, query, merged, matrix, _ in passes:
                del lanes[:]
                extended.clear()
                (_, gapped_count), _ = family.engine._gapped_pass(
                    query, merged, BASE, matrix)
                sequential_gapped_pass(family.engine, query, merged, BASE, matrix)
                waves = max(extended.values())
                assert sum(extended.values()) == sum(lanes) == gapped_count
                assert 1 <= len(lanes) <= waves <= budget
                fewer += len(lanes) < waves
        assert fewer > 0
        _, query, merged, matrix, _ = passes[0]
        del lanes[:]
        family.engine._gapped_pass(query, merged, replace(BASE, l=0), matrix)
        assert lanes == []

    @pytest.mark.parametrize("offsets, first_round, rounds", [
        # the second anchor waits on the first; the third joins it
        ((0, BASE.l, 4 * BASE.l), 1, 2),
        ((0, -BASE.l, 4 * BASE.l), 1, 2),
        # nothing can absorb anything: one round
        ((0, BASE.l + 1, 4 * BASE.l), 3, 1),
        ((0, 4 * BASE.l), 2, 1),
    ])
    def test_dependency_round(self, family, passes, monkeypatch, offsets,
                              first_round, rounds):
        """Anchors of one subject within ``l`` diagonals of each other go to
        separate rounds — whether the later one is extended depends on the
        earlier one's alignment — and still give the sequential pass's
        answer."""
        got, want, fired, lanes = self.run_anchors(
            family, passes, monkeypatch, offsets)
        assert got == want
        assert lanes[0] == first_round and len(lanes) == rounds
        assert sum(lanes) == got[0][1] == len(offsets) - fired["absorbed"]

    def test_dependency_round_absorbs(self, family, passes, monkeypatch):
        """The case a speculative lane would get wrong: a second anchor on
        the best one's diagonal is absorbed by its alignment, so it is never
        extended, and the third (far off the diagonal) waits a round."""
        got, want, fired, lanes = self.run_anchors(
            family, passes, monkeypatch, (0, 0, 4 * BASE.l))
        assert got == want
        assert fired["absorbed"] == 1 and got[0][1] == 2
        assert lanes == [1, 1]

    @staticmethod
    def run_anchors(family, passes, monkeypatch, offsets):
        """Both passes over copies of the first probe's best anchor, moved
        *offsets* diagonals and ranked in that order; returns ``(rounds'
        result, sequential result, sequential rule counts, lanes per
        banded_extend call)``."""
        import repro.core.query as query_module

        lanes, extend = [], banded_extend
        monkeypatch.setattr(
            query_module, "banded_extend",
            lambda query, subjects, *args, **kw: (
                lanes.append(len(subjects))
                or extend(query, subjects, *args, **kw)),
        )
        _, query, merged, matrix, _ = passes[0]
        best = max(merged, key=lambda a: (a.score, a.seq_id))
        anchors = [
            Anchor(seq_id=best.seq_id, query_start=best.query_start,
                   query_end=best.query_end,
                   subject_start=best.subject_start + offset,
                   subject_end=best.subject_end + offset,
                   score=best.score - rank)
            for rank, offset in enumerate(offsets)
        ]
        params = replace(BASE, S=0.0)
        got = family.engine._gapped_pass(query, anchors, params, matrix)
        want, fired = sequential_gapped_pass(
            family.engine, query, anchors, params, matrix)
        return got, want, fired, lanes
