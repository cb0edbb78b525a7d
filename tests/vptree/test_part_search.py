"""Oracle tests for the filter-first node search, under the chaos-seed matrix.

The identity filter passes a candidate with at most m mismatching positions
to its window, so by pigeonhole a passer equals the window on one of m + 1
parts.  The system entry's part-key directory names those part matches,
and the part path (``repro.vptree.search.part_search``, served by
``StorageNode.local_knn`` where part keys are selective) returns the n
nearest rows in the ball among the named rows.  Against brute force in
``(distance, row)`` order, its identity survivors are a superset on every
window, and equal, hits and order, wherever the ball holds fewer than n
rows; a paged store answers as the matrix does, reading only the pages
that hold a named row.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.cluster.node as node_module
from repro.bench.workloads import FamilySpec, generate_family_database
from repro.cluster.node import StorageNode, parts_selective
from repro.core import Mendel, MendelConfig, QueryParams
from repro.core.anchors import max_mismatches
from repro.obs.trace import TraceContext
from repro.scenario import answer_signature
from repro.seq.alphabet import PROTEIN
from repro.seq.distance import HammingDistance, default_distance
from repro.seq.mutate import sample_read
from repro.seq.records import SequenceRecord
from repro.tier import BlockCache, TierConfig
from repro.vptree import VPTree
from repro.vptree.search import part_search
from tests.vptree.test_knn_oracle import PagedRows, family

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: metric name -> (metric, canonical letters, largest per-residue distance)
METRICS = {
    "hamming": (HammingDistance(), 4, 1.0),
    "matrix": (default_distance(PROTEIN), 20,
               float(default_distance(PROTEIN).matrix.max())),
}


def windows_near(rng, points, letters, count, mismatches):
    """Stored rows with 0 to ``mismatches + 1`` positions redrawn, and two
    unrelated rows."""
    out = points[rng.integers(0, len(points), count)].copy()
    for window in out:
        spots = rng.permutation(len(window))[:rng.integers(0, mismatches + 2)]
        window[spots] = rng.integers(0, letters, spots.size)
    out[-2:] = rng.integers(0, letters, (2, points.shape[1]))
    return out


def brute(metric, points, window, k, radius):
    """The rows within *radius*, nearest first in ``(distance, row)``
    order: the k first, and how many there are."""
    dists = metric.batch(window, points)
    order = np.lexsort((np.arange(len(points)), dists))
    inside = [(float(dists[row]), int(row)) for row in order if dists[row] <= radius]
    return inside[:k], len(inside)


def survivors(hits, points, window, identity):
    """*hits* the identity filter passes, in order."""
    return [(dist, row) for dist, row in hits
            if (points[row] == window).sum() / len(window) >= identity]


def part_matches(points, window, parts):
    """The rows of *points* equal to *window* on one of its *parts*."""
    return [
        row for row, codes in enumerate(points)
        if any((codes[part] == window[part]).all()
               for part in np.array_split(np.arange(len(window)), parts))
    ]


def named_pairs(points, windows, parts):
    """``(lanes, rows)``: every (window, part match) pair, window-major."""
    named = [part_matches(points, window, parts) for window in windows]
    lanes = np.repeat(np.arange(len(windows)), [len(rows) for rows in named])
    return lanes, np.array([row for rows in named for row in rows], dtype=np.intp)


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(METRICS)),
    length=st.integers(2, 24),
    identity=st.floats(0.01, 1.0),
    k=st.integers(1, 10),
    rows=st.integers(1, 150),
    scale=st.sampled_from([0.5, 1.0, 2.0]),
    draw=st.integers(0, 2**16),
)
def test_part_path_keeps_every_survivor(name, length, identity, k, rows, scale, draw):
    metric, letters, widest = METRICS[name]
    rng = np.random.default_rng([SEED, draw])
    points = family(rng, rows, letters, length)
    mismatches = max_mismatches(length, identity)
    radius = mismatches * widest * scale
    windows = windows_near(rng, points, letters, 10, mismatches)
    tree = VPTree(points, metric, bucket_capacity=4, rng=SEED)
    lanes, rows = named_pairs(points, windows, mismatches + 1)
    before = tree.adapter.pair_evaluations
    found = part_search(tree, windows, k, radius, lanes, rows)
    assert tree.adapter.pair_evaluations - before == sum(e for _, e in found)
    assert (found.cold_reads, found.cold_bytes) == (0, 0)

    twin = copy.copy(tree)
    twin.points = store = PagedRows(points, page_rows=7)
    paged = part_search(twin, windows, k, radius, lanes, rows)
    assert paged == found
    assert (paged.cold_reads, paged.cold_bytes) == (store.reads, store.nbytes)
    held = set(rows.tolist())
    assert store.reads == sum(bool(held.intersection(page.tolist()))
                              for page in store._pages[::2])
    assert store.laps == 0

    for window, (hits, evals) in zip(windows, found):
        context = f"window={window.tolist()} m={mismatches} k={k} R={radius}"
        assert evals == len(part_matches(points, window, mismatches + 1)), context
        assert hits == sorted(hits) and len(hits) <= k, context
        assert all(d <= radius and d == metric(window, points[row])
                   for d, row in hits), context
        expected, in_ball = brute(metric, points, window, k, radius)
        kept = survivors(hits, points, window, identity)
        assert set(survivors(expected, points, window, identity)) <= set(kept), context
        if in_ball < k:
            assert kept == survivors(expected, points, window, identity), context


@pytest.mark.parametrize("length,parts", [(8, 2), (32, 7)])
def test_a_long_query_holds_bounded_memory(length, parts):
    """2,000 windows against a 300-row node where every window is named
    nearly every row, the worst case, 600,000 pairs: they are scored
    ``_PASS_CELLS`` at a time, so beside one sorted copy of the named rows
    fewer than ``_PASS_CELLS`` pairs (a lane, a row and L codes each) are
    held, about three times over while they are scored and merged — not
    all pairs' codes at once."""
    import tracemalloc

    from repro.vptree import search

    points = np.zeros((300, length), dtype=np.uint8)
    queries = np.zeros((2000, length), dtype=np.uint8)
    points[-1] = queries[SEED % len(queries)] = 1
    tree = VPTree(points, HammingDistance(), bucket_capacity=8, rng=SEED)
    equal = queries[:, None, :] == points[None, :, :]
    lanes, rows = np.nonzero(np.any([
        equal[:, :, part].all(axis=2)
        for part in np.array_split(np.arange(length), parts)], axis=0))
    del equal
    tracemalloc.start()
    try:
        found = search.part_search(tree, queries, 1, float(length), lanes, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * search._PASS_CELLS * (3 * length + 128), peak
    for window, (hits, evals) in enumerate(found):
        if window == SEED % len(queries):
            assert (hits, evals) == ([(0.0, 299)], 1)
        else:
            assert (hits, evals) == ([(0.0, 0)], 299)


class TestMaxMismatches:
    def test_matches_the_filter_comparison(self):
        """The largest x with ``(w - x) / w >= i``, at every w <= 40 and a
        grid of thresholds, ends included."""
        for width in range(1, 41):
            for identity in np.linspace(0.0, 1.0, 101).tolist() + [0.9, 0.8]:
                best = max(x for x in range(width + 1)
                           if (width - x) / width >= identity)
                assert max_mismatches(width, identity) == best, (width, identity)

    @pytest.mark.parametrize("width,identity,expected", [
        (10, 0.9, 1), (20, 0.9, 2), (30, 0.9, 3), (40, 0.8, 8),
        (8, 0.8, 1), (32, 0.8, 6), (8, 0.5, 4), (8, 0.9, 0),
    ])
    def test_the_float_floor_was_one_short(self, width, identity, expected):
        assert max_mismatches(width, identity) == expected

    def test_a_planted_window_one_mismatch_away_is_found(self, protein_db):
        """At w = 10, i = 0.9, a window with one mismatch passes the
        identity filter (9 / 10 >= 0.9), so the search radius must reach
        it: a radius of 0 found only exact copies."""
        mendel = Mendel.build(protein_db, MendelConfig(
            group_count=1, group_size=1, segment_length=10, sample_size=256,
            seed=7))
        target = protein_db.records[(SEED + 3) % len(protein_db.records)]
        codes = target.codes[40:50].copy()
        codes[4] = (codes[4] + 1) % PROTEIN.canonical_size
        probe = SequenceRecord(seq_id="one-off", codes=codes, alphabet=PROTEIN)
        params = QueryParams(k=1, n=4, i=0.9, c=0.0)
        assert mendel.engine.search_radius(params) > 0
        report = mendel.query(probe, params)
        assert report.stats.identity_pass >= 1


class TestRule:
    @pytest.mark.parametrize("width,identity,letters,selective", [
        (8, 0.8, 20, True),     # reads: two parts of 4, 16.3 bits
        (32, 0.8, 20, True),    # storage_lifecycle: seven of 4-5, 14.5 bits
        (16, 0.7, 20, True),    # five parts of 3-4, 10.6 bits
        (8, 0.7, 20, False),    # three parts of 2-3, 7.1 bits
        (8, 0.5, 20, False),    # homologs: five of 1-2, 2.0 bits
        (8, 0.9, 20, False),    # one part: the radius-0 walk is a lookup
        (16, 0.9, 4, True),     # DNA, two parts of 8 bases, 15 bits
        (8, 0.8, 4, False),     # DNA, two parts of 4 bases, 7 bits
    ])
    def test_shortest_part_against_random_rows(self, width, identity, letters,
                                               selective):
        mismatches = max_mismatches(width, identity)
        assert parts_selective(width, mismatches, letters) is selective


def spilled_twins(rows=3000, cache_share=10):
    """Two identical spilled 32-residue nodes behind caches of a tenth of
    their codes, and the all-RAM codes."""
    rng = np.random.default_rng([SEED, 41])
    codes = family(rng, rows, 20, 32)
    nodes = []
    for _ in range(2):
        node = StorageNode(
            "n0", "g0", lambda: default_distance(PROTEIN), segment_length=32,
            bucket_capacity=512, rng_seed=SEED,
        )
        node.store_blocks(codes, list(range(rows)))
        node.attach_tier(BlockCache(rows * 32 // cache_share),
                         TierConfig(page_rows=64, alphabet_size=20))
        node.spill()
        nodes.append(node)
    return nodes, codes, windows_near(rng, codes, 20, 24, 6)


def named_ids(codes, windows, parts):
    """Per window, the ids of its part matches among *codes* (block id =
    row): what the part-key directory names."""
    return [np.array(part_matches(codes, window, parts), dtype=np.int32)
            for window in windows]


def test_spilled_node_reads_as_the_scan_and_answers_as_ram():
    """A spilled node on the part path reads from the device exactly the
    pages that hold a named block and are not resident, each once — a
    cold pass and one over what it left resident — and answers, hits,
    evals and charges, as its all-RAM twin; the vp-tree scan of its twin
    reads more."""
    (node, scan_node), codes, windows = spilled_twins()
    radius, mismatches = 6 * METRICS["matrix"][2], 6
    named = named_ids(codes, windows, mismatches + 1)
    tier, cache = node.tier, node.tier.cache
    pages = {tier._row_of_block[b][0] for ids in named for b in ids.tolist()}
    assert pages
    for _ in range(2):
        cold = [page for page in sorted(pages) if page not in tier._pinned_arrays
                and not cache.contains((node.node_id, page))]
        searches, reads = node.local_knn(
            windows, 6, radius, mismatches=mismatches, letters=20,
            candidates=named)
        _, scan_reads = scan_node.local_knn(windows, 6, radius)
        assert searches.path == "parts"
        assert (reads.seeks, reads.nbytes) == (
            len(cold), sum(tier.reader.pages[page].length for page in cold))
        assert reads.seeks < scan_reads.seeks
    ram = StorageNode("n0", "g0", lambda: default_distance(PROTEIN),
                      segment_length=32, bucket_capacity=512, rng_seed=SEED)
    ram.store_blocks(codes, list(range(len(codes))))
    in_ram, ram_reads = ram.local_knn(windows, 6, radius, mismatches=mismatches,
                                      letters=20, candidates=named)
    assert ram_reads.seeks == 0
    assert in_ram == searches and in_ram.path == searches.path


def test_charges_follow_the_executed_kernel():
    """A window is charged an evaluation per row scored: the named rows
    the node holds, and nothing for the rows it does not."""
    rng = np.random.default_rng([SEED, 43])
    codes = family(rng, 900, 20, 8)
    node = StorageNode("n0", "g0", lambda: default_distance(PROTEIN),
                       segment_length=8)
    held = np.arange(0, len(codes), 2)
    node.store_blocks(codes[held], held.tolist())
    windows = windows_near(rng, codes, 20, 30, 1)
    named = named_ids(codes, windows, 2)
    before = node.tree.adapter.pair_evaluations
    searches, reads = node.local_knn(windows, 6, 15.0, mismatches=1, letters=20,
                                     candidates=named)
    assert searches.path == "parts" and reads.seeks == 0
    for ids, (hits, cost) in zip(named, searches):
        assert cost.evals == np.isin(ids, held).sum()
        assert cost.seconds == node.service_time(cost.evals)
        assert {block for _, block in hits} <= set(held.tolist())
    assert node.tree.adapter.pair_evaluations - before == sum(
        cost.evals for _, cost in searches)
    scan, _ = node.local_knn(windows, 6, 15.0, mismatches=4, letters=20,
                             candidates=named)
    assert scan.path == "vptree"
    walked, _ = node.local_knn(windows, 6, 15.0, mismatches=1, letters=20)
    assert walked.path == "vptree"


@pytest.fixture(scope="module")
def read_mapping():
    """A ``read_mapping``-shaped deployment — 20 families of 4 members of
    150 residues on 4 groups x 3 nodes — and 40 reads of 150 to 600
    residues at a 2% error rate, with the workload's parameters."""
    database = generate_family_database(FamilySpec(20, 4, 150), rng=SEED + 23)
    mendel = Mendel.build(database, MendelConfig(group_count=4, group_size=3,
                                                 seed=SEED))
    rng = np.random.default_rng([SEED, 47])
    records = [database.records[int(rng.integers(len(database)))]
               for _ in range(40)]
    reads = [
        sample_read(record, length=min(len(record), int(rng.choice([80, 150]))),
                    rng=rng, error_rate=0.02, seq_id=f"read-{i}")
        for i, record in enumerate(records)
    ]
    return mendel, reads, QueryParams(k=8, n=6, i=0.8)


def test_read_mapping_answers_are_the_vptree_answers(read_mapping, monkeypatch):
    """40 reads answer identically from part keys and from the vp-tree
    scan of the same deployment, and the span of every node names the part
    path."""
    mendel, reads, params = read_mapping
    parts = [mendel.query(read, params, trace_ctx=TraceContext()) for read in reads]
    monkeypatch.setattr(node_module, "parts_selective", lambda *args: False)
    scans = [mendel.query(read, params) for read in reads]
    assert [answer_signature(r) for r in parts] == [answer_signature(r) for r in scans]
    assert sum(r.stats.identity_pass for r in parts) == sum(
        r.stats.identity_pass for r in scans) > 0
    assert sum(r.stats.node_evals for r in parts) < sum(
        r.stats.node_evals for r in scans) / 100
    searched = {span.attrs["search"] for report in parts
                for span in report.root_span.walk() if span.name.startswith("node:")}
    assert searched == {"parts"}


def test_spilled_deployment_answers_as_ram_on_the_part_path():
    """A w = 32, i = 0.8 deployment spilled behind a cache far below its
    working set answers as its all-RAM twin, counters included, every node
    from part keys."""
    database = generate_family_database(FamilySpec(6, 4, 240), rng=SEED + 29)
    config = MendelConfig(group_count=2, group_size=2, bucket_capacity=512,
                          segment_length=32, replication=2, seed=SEED)
    control, subject = Mendel.build(database, config), Mendel.build(database, config)
    rng = np.random.default_rng([SEED, 53])
    reads = [
        sample_read(database.records[int(rng.integers(len(database)))],
                    length=100, rng=rng, error_rate=0.02, seq_id=f"read-{i}")
        for i in range(8)
    ]
    params = QueryParams(k=8, n=6, i=0.8)
    expected = [answer_signature(control.query(r, params), counters=True)
                for r in reads]
    raw = sum(np.asarray(n.tree.points).nbytes for n in subject.index.topology.nodes)
    cache = subject.spill(cache_bytes=raw // 20, config=TierConfig(
        page_rows=64, alphabet_size=database.alphabet.size))
    traced = [subject.query(r, params, trace_ctx=TraceContext()) for r in reads]
    assert [answer_signature(r, counters=True) for r in traced] == expected
    assert cache.stats()["misses"] and cache.stats()["evictions"]
    assert {span.attrs["search"] for report in traced
            for span in report.root_span.walk()
            if span.name.startswith("node:")} == {"parts"}
