"""A spilled node's pages follow the block chain.

A block is a stride-1 window of one record, so consecutive block ids are
overlapping windows of one sequence.  Spill lays a node's non-vantage rows
into data pages in ascending block id, ``page_rows`` to a page, and its
vantage rows into pinned pages after them.  A read's candidates are runs of
consecutive windows, so they share pages.  Deployments, reads and the
crashed node are drawn from ``CHAOS_SEED``; answers must stay those of the
all-RAM twin, before and after the spilled node crashes and recovers.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.bench.workloads import FamilySpec
from repro.cluster.node import StorageNode
from repro.core.params import QueryParams
from repro.scenario import answer_signature, build_deployment
from repro.seq.mutate import sample_read
from repro.tier import TierConfig

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
#: reads at 80 % identity: the part path names each window's candidates
PARAMS = QueryParams(k=4, n=6, i=0.8)
PAGE_ROWS = 16


def vantage_rows(tree) -> list[int]:
    rows, stack = [], [tree.root]
    while stack:
        vertex = stack.pop()
        if not vertex.is_leaf:
            rows.append(int(vertex.vantage_index))
            stack += [s for s in (vertex.left, vertex.right) if s is not None]
    return rows


def check_layout(node) -> None:
    """Data pages list each held block once, in ascending id, full but the
    last; the vantage rows sit in the pinned pages that follow them."""
    tier, tree = node.tier, node.tree
    pages = tier.reader.pages
    pinned = sorted(tier._pinned_arrays)
    data = [index for index in range(len(pages)) if index not in tier._pinned_arrays]
    assert data == list(range(len(data)))
    assert pinned == list(range(len(data), len(pages)))
    assert sorted(row for index in pinned for row in pages[index].tree_rows) == (
        sorted(vantage_rows(tree)))
    ids = [block for index in data for block in pages[index].block_ids]
    assert ids == sorted(set(ids))
    assert all(pages[index].rows == PAGE_ROWS for index in data[:-1])
    held = ids + [block for index in pinned for block in pages[index].block_ids]
    assert sorted(held) == sorted(int(block) for block in tree.payloads)


def deployment():
    draw = random.Random(SEED)
    mendel = build_deployment(
        draw.randrange(1000),
        FamilySpec(families=draw.randint(3, 5), members_per_family=3,
                   length=draw.randint(100, 160)),
        group_count=2, group_size=draw.randint(2, 3),
    )
    records = mendel.index.database.records
    reads = [sample_read(records[draw.randrange(len(records))],
                         draw.randint(40, 80), rng=draw.randrange(1000),
                         error_rate=0.02, seq_id=f"read-{i}")
             for i in range(4)]
    return mendel, reads


def signatures(mendel, reads):
    return [answer_signature(mendel.query(read, PARAMS), counters=True)
            for read in reads]


def spill(mendel, cache_bytes):
    mendel.spill(cache_bytes=cache_bytes, config=TierConfig(
        page_rows=PAGE_ROWS, alphabet_size=mendel.index.alphabet.size))


def test_tiered_answers_equal_ram_across_a_crash():
    twin, reads = deployment()
    mendel, _ = deployment()
    expected = signatures(twin, reads)
    raw = sum(np.asarray(n.tree.points).nbytes for n in mendel.index.topology.nodes)
    spill(mendel, raw // 10)
    for node in mendel.index.topology.nodes:
        check_layout(node)
    assert signatures(mendel, reads) == expected

    nodes = mendel.index.topology.nodes
    node = nodes[SEED % len(nodes)]
    mendel.fail_node(node.node_id)
    mendel.recover_node(node.node_id)
    assert node.tiered
    check_layout(node)
    assert signatures(mendel, reads) == expected


def test_a_reads_cold_reads_are_its_candidate_pages(monkeypatch):
    """With no cache, each node-subquery reads from the device exactly the
    data pages holding a named block the node holds; a block's page is its
    rank among the node's data blocks over ``page_rows``, so the windows a
    read names share pages and it reads fewer pages than blocks."""
    mendel, reads = deployment()
    spill(mendel, 0)
    seen = []
    original = StorageNode.local_knn

    def local_knn(node, windows, k, max_radius=float("inf"),
                  mismatches=None, letters=None, candidates=None):
        searches, cost = original(node, windows, k, max_radius,
                                  mismatches, letters, candidates)
        if searches.path == "parts":
            seen.append((node, candidates, cost))
        return searches, cost

    monkeypatch.setattr(StorageNode, "local_knn", local_knn)
    for read in reads:
        mendel.query(read, PARAMS)
    assert seen
    blocks = pages_read = 0
    for node, candidates, cost in seen:
        tier = node.tier
        data = [block for index in range(len(tier.reader.pages))
                if index not in tier._pinned_arrays
                for block in tier.reader.pages[index].block_ids]
        rank = {block: at for at, block in enumerate(data)}
        named = np.unique(np.concatenate(candidates))
        named = named[np.isin(named, node.held)].tolist()
        pages = {rank[block] // PAGE_ROWS for block in named if block in rank}
        assert pages == {tier._row_of_block[block][0] for block in named
                         if block in rank}
        assert cost.seeks == len(pages)
        assert cost.nbytes == sum(tier.reader.pages[page].length for page in pages)
        blocks += len(named)
        pages_read += cost.seeks
    assert 0 < pages_read < blocks
