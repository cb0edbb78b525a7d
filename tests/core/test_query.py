"""Tests for the query pipeline (repro.core.query)."""

import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import Mendel, MendelConfig
from repro.core.params import QueryParams
from repro.core.anchors import evaluate_candidate
from repro.core.query import NodeCost, QueryEngine, execute, resolve_matrix
from repro.obs.metrics import default_registry
from repro.obs.profile import (
    CostProfiler,
    install_cost_profiler,
    uninstall_cost_profiler,
)
from repro.obs.trace import TraceContext
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.matrices import BLOSUM62, PAM250
from repro.seq.mutate import mutate_to_identity
from repro.seq.records import SequenceRecord
from repro.tier import TierConfig
from repro.tier.blockfile import TIER_FILE, BlockFileReader
from repro.tier.codec import METHOD_RAW
from tests.core.anchor_walk import extend_one

SEED = int(os.environ.get("CHAOS_SEED", "0"))


class TestResolveMatrix:
    def test_protein_default(self):
        assert np.array_equal(resolve_matrix(QueryParams(), PROTEIN), BLOSUM62)

    def test_dna_gets_dna_default(self):
        matrix = resolve_matrix(QueryParams(), DNA)
        assert matrix.shape == (5, 5)

    def test_explicit_choice_respected(self):
        assert np.array_equal(
            resolve_matrix(QueryParams(M="PAM250"), PROTEIN), PAM250
        )


class TestWindows:
    def test_stride_and_tail(self, mendel):
        record = SequenceRecord.from_text("q", "A" * 30, PROTEIN)
        windows = mendel.engine.windows_for(record, QueryParams(k=8))
        w = mendel.index.segment_length
        starts = [win.query_start for win in windows]
        assert starts[0] == 0
        assert starts[-1] == 30 - w  # tail always covered
        assert all(b - a == 8 for a, b in zip(starts, starts[1:-1]))

    def test_stride_one(self, mendel):
        record = SequenceRecord.from_text("q", "A" * 20, PROTEIN)
        windows = mendel.engine.windows_for(record, QueryParams(k=1))
        assert len(windows) == 20 - mendel.index.segment_length + 1

    def test_query_shorter_than_segment_rejected(self, mendel):
        short = SequenceRecord.from_text("q", "MKV", PROTEIN)
        with pytest.raises(ValueError, match="shorter than"):
            mendel.engine.windows_for(short, QueryParams())

    def test_window_codes_match_query(self, mendel):
        record = SequenceRecord.from_text("q", "MKVLAWFWAHKLMKVL", PROTEIN)
        for win in mendel.engine.windows_for(record, QueryParams(k=4)):
            expected = record.codes[win.query_start : win.query_start + 8]
            assert np.array_equal(win.codes, expected)


class TestSearchRadius:
    def test_protein_radius_scales_with_threshold(self, mendel):
        low = mendel.engine.search_radius(QueryParams(i=0.5))
        high = mendel.engine.search_radius(QueryParams(i=0.9))
        assert high < low

    def test_exact_identity_gives_zero_radius(self, mendel):
        # i close to 1 on an 8-residue window allows zero mismatches.
        assert mendel.engine.search_radius(QueryParams(i=0.99)) == 0.0


def node_kernel(node, query_codes, windows, params, radius, matrix, store):
    """One node's subquery as the replay runs it: :func:`execute` on the
    one job, counted on the node and priced at its speed."""
    [work] = execute([(node, windows)], query_codes, params, radius, matrix,
                     store)
    cost = work.cost(node)
    node.served(len(windows), cost.evals, work.corrupt_reads)
    return work.anchors, cost


@pytest.mark.chaos
class TestNodeKernel:
    def test_pure_and_equal_to_the_traced_run(self, mendel, planted_probe):
        """Called directly — no Simulation — execute returns what the
        same node's span reports, and publishes and counts nothing."""
        probe, _ = planted_probe
        params = QueryParams(k=4, n=6, i=0.7)
        engine, index = mendel.engine, mendel.index
        traced = mendel.query(probe, params, trace_ctx=TraceContext())
        radius = engine.search_radius(params)
        group = index.topology.groups[0]
        windows = [
            window for window in engine.windows_for(probe, params)
            if group in index.topology.route(
                window.codes, engine.tolerance(params)).groups
        ]
        node = group.nodes[0]
        span = traced.root_span.find(f"node:{node.node_id}")
        assert span.attrs["windows"] == len(windows) > 0

        registry = default_registry()
        before = (registry.family_total("repro_query_funnel_total"),
                  registry.family_total("repro_queries_total"),
                  registry.family_total("repro_distance_evaluations_total"),
                  node.stats.queries_served, node.stats.corrupt_reads)
        [work] = execute(
            [(node, windows)], probe.codes, params, radius,
            resolve_matrix(params, index.alphabet), index.store,
        )
        assert before == (registry.family_total("repro_query_funnel_total"),
                          registry.family_total("repro_queries_total"),
                          registry.family_total("repro_distance_evaluations_total"),
                          node.stats.queries_served, node.stats.corrupt_reads)
        anchors, cost = work.anchors, work.cost(node)
        assert {
            "evals": cost.evals, "candidates": cost.candidates,
            "identity_pass": cost.identity_pass,
            "cscore_pass": cost.cscore_pass, "anchors": len(anchors),
        } == {key: span.attrs[key] for key in
              ("evals", "candidates", "identity_pass", "cscore_pass",
               "anchors")}
        assert cost.anchors == len(anchors) > 0
        assert cost.service_seconds > 0 and cost.io_seconds == 0.0


    def test_equals_the_filter_run_one_candidate_at_a_time(self, protein_db):
        """The batched filter against the loop it replaced, on a node where
        one hit's durable copy is rotten (skipped before scoring) and where
        neighbouring windows extend to the same anchor (kept once)."""
        mendel = Mendel.build(
            protein_db,
            MendelConfig(group_count=1, group_size=1, sample_size=256, seed=7),
        )
        engine, index = mendel.engine, mendel.index
        [node] = index.topology.nodes
        target = protein_db.records[(SEED + 2) % len(protein_db.records)]
        probe = SequenceRecord(
            seq_id="copy", codes=target.codes[20:80].copy(), alphabet=PROTEIN
        )
        params = QueryParams(k=4, n=6, i=0.5, c=0.4)
        args = (
            node, probe.codes, engine.windows_for(probe, params), params,
            engine.search_radius(params),
            resolve_matrix(params, index.alphabet), index.store,
        )
        healthy = node_kernel(*args)
        assert healthy == one_candidate_at_a_time(*args)
        _, cost = healthy
        assert cost.candidates > cost.identity_pass > 0
        assert cost.cscore_pass > cost.anchors > 0     # duplicates dropped

        first = next(index.store.blocks_of_sequence(target.seq_id)).block_id
        node.durable.corrupt_block(first + 20, bit=3)  # window 0's exact hit
        reads = node.stats.corrupt_reads
        rotten = node_kernel(*args)
        assert node.stats.corrupt_reads == reads + 1
        assert rotten == one_candidate_at_a_time(*args)
        assert rotten[1].candidates == cost.candidates
        assert rotten[1].identity_pass == cost.identity_pass - 1


    def test_spilled_node_decodes_each_page_once(self, protein_db, monkeypatch):
        """A spilled node's verified read decodes each page its hits fall in
        once per node-subquery, fresh from the device: a page rotted under
        a warm cache (the distance pass still sees the good rows) fails
        every hit on it, each counted as one corrupt read, and the answer is
        the per-candidate reference's."""
        mendel = Mendel.build(
            protein_db,
            MendelConfig(group_count=1, group_size=1, sample_size=256, seed=7),
        )
        engine, index = mendel.engine, mendel.index
        [node] = index.topology.nodes
        raw = np.asarray(node.tree.points).nbytes
        mendel.spill(cache_bytes=2 * raw,
                     config=TierConfig(page_rows=64, alphabet_size=PROTEIN.size))
        target = protein_db.records[(SEED + 2) % len(protein_db.records)]
        probe = SequenceRecord(
            seq_id="copy", codes=target.codes[20:80].copy(), alphabet=PROTEIN
        )
        params = QueryParams(k=4, n=6, i=0.5, c=0.4)
        windows = engine.windows_for(probe, params)
        args = (
            node, probe.codes, windows, params, engine.search_radius(params),
            resolve_matrix(params, index.alphabet), index.store,
        )
        healthy = node_kernel(*args)  # also warms the cache
        searches, reads = node.local_knn(
            np.stack([window.codes for window in windows]), params.n,
            max_radius=args[4])
        assert reads.seeks == 0
        tier = node.tier
        hits = [(window, block_id) for window, (found, _) in zip(windows, searches)
                for _, block_id in found]
        hit_pages = [tier._row_of_block[block_id][0] for _, block_id in hits]
        # the page with the most hits, of those where one passes identity
        similar = {
            tier._row_of_block[block_id][0] for window, block_id in hits
            if (window.codes == index.store.codes_of(block_id)).mean() >= params.i
        }
        rotten_hits, page = max((count, page) for page, count
                                in Counter(hit_pages).items() if page in similar)
        assert rotten_hits >= 2

        reader, meta = tier.reader, tier.reader.pages[page]
        start = reader._payload_base + meta.offset
        if meta.method == METHOD_RAW:  # rot every row on the page
            for slot in range(meta.rows):
                node.disk.flip_bit(TIER_FILE, start + slot * tier.width, 2)
        else:  # a zlib stream with a bad header decodes to nothing
            node.disk.flip_bit(TIER_FILE, start, 0)
        decoded, read_page = [], BlockFileReader.read_page
        monkeypatch.setattr(
            BlockFileReader, "read_page",
            lambda self, index: decoded.append(index) or read_page(self, index))
        verdicts, lookup = [], node.verdicts
        monkeypatch.setattr(
            node, "verdicts",
            lambda ids: verdicts.append((ids, lookup(ids))) or verdicts[-1][1])

        before = node.stats.corrupt_reads
        rotten = node_kernel(*args)
        assert node.stats.corrupt_reads == before + rotten_hits
        assert sorted(decoded) == sorted(set(hit_pages))
        [(ids, flags)] = verdicts
        assert [tier._row_of_block[b][0] == page for b in ids] == [
            not ok for ok in flags]
        monkeypatch.undo()
        assert rotten == one_candidate_at_a_time(*args)
        assert rotten[1].candidates == healthy[1].candidates
        assert rotten[1].identity_pass < healthy[1].identity_pass


def one_candidate_at_a_time(node, query_codes, windows, params, radius, matrix, store):
    """A node's kernel as it read while the verified read, the filter and
    the extension were a call per candidate: the reference its
    ``(anchors, NodeCost)`` must equal."""
    positives = matrix if store.database.alphabet.name == "protein" else None
    anchors, seen, cost = [], set(), NodeCost()
    searches, reads = node.local_knn(
        np.stack([window.codes for window in windows]), params.n, max_radius=radius
    )
    cost.io_seeks, cost.io_bytes, cost.io_seconds = reads
    cost.service_seconds += reads.seconds
    for window, (hits, search) in zip(windows, searches):
        cost.evals += search.evals
        cost.service_seconds += search.seconds
        cost.candidates += len(hits)
        for _dist, block_id in hits:
            if not node.verify_blocks([block_id])[0]:
                continue
            score = evaluate_candidate(
                window.codes, store.codes_of(block_id), positives
            )
            if score.identity < params.i:
                continue
            cost.identity_pass += 1
            if score.c_score < params.c:
                continue
            cost.cscore_pass += 1
            block = store.block(block_id)
            anchor = extend_one(
                query=query_codes, subject=store.record_of(block_id).codes,
                seq_id=block.seq_id, query_start=window.query_start,
                query_end=window.query_start + block.length,
                subject_start=block.start, identity_threshold=params.i,
                matrix=matrix,
            )
            key = (anchor.seq_id, anchor.diagonal, anchor.query_start)
            if key in seen:
                continue
            seen.add(key)
            cost.extension_ops += anchor.length
            anchors.append(anchor)
    cost.anchors = len(anchors)
    cost.service_seconds += node.service_time_ops(cost.extension_ops)
    return anchors, cost


@pytest.mark.chaos
class TestConcurrentCosts:
    def test_thread_pool_reads_the_sequential_costs(self, mendel, protein_db):
        """Every cost a query reports is a value its own run computed —
        the search's and the routing walk's evaluation counts come back
        with their results, never as a delta of a counter other threads
        also advance — so overlapping queries on one index read exactly
        the stats, turnaround included, and charge exactly the cost
        profile they do alone.  The answers too: the lockstep gapped pass
        holds no module-level scratch, so threads extending at once report
        the alignments each would alone."""
        records = protein_db.records
        probes = [
            mutate_to_identity(records[(SEED + 5 * i) % len(records)], 0.85,
                               rng=SEED + 70 + i, seq_id=f"pooled-{i}")
            for i in range(8)
        ]

        def profiled(run):
            profiler = install_cost_profiler(CostProfiler())
            try:
                return run(), profiler.charges()
            finally:
                uninstall_cost_profiler(profiler)

        def answer(probe):
            report = mendel.query(probe, QueryParams())
            return report.stats, report.alignments

        def pooled_run():
            with ThreadPoolExecutor(max_workers=4) as pool:
                return list(pool.map(answer, probes, timeout=300))

        sequential, sequential_charges = profiled(
            lambda: [answer(probe) for probe in probes])
        assert all(s.node_evals > 0 and s.turnaround > 0 and s.gapped_extensions
                   and alignments for s, alignments in sequential)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            pooled, pooled_charges = profiled(pooled_run)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == sequential
        assert pooled_charges == sequential_charges


    def test_spilled_deployment_pays_for_each_read_once(self, protein_db):
        """On spilled nodes a search's cold reads come back from its own
        distance pass.  With a warmed cache that fits the corpus there is
        nothing to read, and the pool reports the sequential stats
        exactly.  With a 10 % cache the threads evict each other's pages,
        so who pays for what depends on the interleaving — but answers do
        not, and every device read is charged to exactly one query."""
        mendel = Mendel.build(
            protein_db,
            MendelConfig(group_count=3, group_size=2, sample_size=256, seed=7),
        )
        nodes = mendel.index.topology.nodes
        raw = sum(np.asarray(node.tree.points).nbytes for node in nodes)
        records = protein_db.records
        probes = [
            mutate_to_identity(records[(SEED + 5 * i) % len(records)], 0.85,
                               rng=SEED + 70 + i, seq_id=f"pooled-{i}")
            for i in range(8)
        ]

        def answer(probe):
            report = mendel.query(probe, QueryParams(), trace_ctx=TraceContext())
            reads = [span.attrs for span in report.root_span.walk()
                     if span.name == "cold_read"]
            return (report.stats, report.alignments,
                    sum(read["seeks"] for read in reads),
                    sum(read["bytes"] for read in reads))

        def pooled_run():
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(answer, probes, timeout=300))
            finally:
                sys.setswitchinterval(interval)

        def device_reads():
            return (sum(node.tier.total_seeks for node in nodes),
                    sum(node.tier.total_bytes for node in nodes))

        expected = [answer(probe)[1] for probe in probes]  # all-RAM
        config = TierConfig(page_rows=16, alphabet_size=PROTEIN.size)
        mendel.spill(cache_bytes=2 * raw, config=config)
        cold = [answer(probe) for probe in probes]  # also warms the cache
        assert sum(seeks for *_, seeks, _ in cold) == device_reads()[0] > 0
        sequential = [answer(probe) for probe in probes]
        assert [seeks for *_, seeks, _ in sequential] == [0] * 8
        assert pooled_run() == sequential
        assert [alignments for _, alignments, *_ in sequential] == expected

        mendel.spill(cache_bytes=raw // 10, config=config)
        before = device_reads()
        pooled = pooled_run()
        assert [alignments for _, alignments, *_ in pooled] == expected
        paid = (sum(seeks for *_, seeks, _ in pooled),
                sum(nbytes for *_, nbytes in pooled))
        after = device_reads()
        assert paid == (after[0] - before[0], after[1] - before[1])
        assert paid[0] > 0


class TestEndToEnd:
    def test_finds_planted_homolog_first(self, mendel, planted_probe):
        probe, target_id = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=8, i=0.6))
        assert report.alignments
        assert report.alignments[0].subject_id == target_id
        assert report.alignments[0].identity == pytest.approx(0.85, abs=0.05)

    def test_exact_query_is_perfect_hit(self, mendel, protein_db):
        target = protein_db.records[2]
        probe = SequenceRecord(
            seq_id="exact", codes=target.codes.copy(), alphabet=PROTEIN
        )
        report = mendel.query(probe, QueryParams(k=4, n=4, i=0.9))
        best = report.alignments[0]
        assert best.subject_id == target.seq_id
        assert best.identity == 1.0
        assert best.query_span == len(target)

    def test_ranking_by_evalue(self, mendel, planted_probe):
        probe, _ = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=8, i=0.5))
        evalues = [a.evalue for a in report.alignments]
        assert evalues == sorted(evalues)

    def test_stats_consistency(self, mendel, planted_probe):
        probe, _ = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=6))
        stats = report.stats
        assert stats.turnaround > 0
        assert stats.windows > 0
        assert stats.subqueries_routed >= stats.windows
        assert stats.groups_contacted >= 1
        assert stats.messages > 0
        assert stats.alignments_reported == len(report.alignments)

    def test_deterministic(self, mendel, planted_probe):
        probe, _ = planted_probe
        a = mendel.query(probe, QueryParams(k=4, n=6))
        b = mendel.query(probe, QueryParams(k=4, n=6))
        assert a.alignments == b.alignments
        assert a.stats.turnaround == pytest.approx(b.stats.turnaround)

    def test_alphabet_mismatch_rejected(self, mendel):
        dna_query = SequenceRecord.from_text("q", "ACGT" * 5, DNA)
        with pytest.raises(ValueError, match="alphabet"):
            mendel.query(dna_query)

    def test_strict_evalue_filters_everything(self, mendel, rng):
        junk = SequenceRecord(
            seq_id="junk",
            codes=rng.integers(0, 20, 50).astype(np.uint8),
            alphabet=PROTEIN,
        )
        report = mendel.query(junk, QueryParams(k=4, n=4, E=1e-30))
        assert all(a.evalue <= 1e-30 for a in report.alignments)

    def test_report_helpers(self, mendel, planted_probe):
        probe, target_id = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=8))
        assert report.best() is report.alignments[0]
        assert target_id in report.subject_ids()
        assert all(a.subject_id == target_id for a in report.hits(target_id))

    def test_alignment_coordinates_in_bounds(self, mendel, planted_probe):
        probe, _ = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=8, i=0.5))
        for a in report.alignments:
            subject = mendel.index.database[a.subject_id]
            assert 0 <= a.query_start <= a.query_end <= len(probe)
            assert 0 <= a.subject_start <= a.subject_end <= len(subject)

    def test_gapped_disabled_with_l_zero(self, mendel, planted_probe):
        probe, target_id = planted_probe
        report = mendel.query(probe, QueryParams(k=4, n=8, l=0))
        assert report.alignments
        assert report.alignments[0].subject_id == target_id


class TestKaCache:
    def test_cached_per_matrix(self, mendel):
        engine = mendel.engine
        a = engine.ka_params(QueryParams(M="BLOSUM62"))
        b = engine.ka_params(QueryParams(M="BLOSUM62"))
        assert a is b
        c = engine.ka_params(QueryParams(M="PAM250"))
        assert c is not a
