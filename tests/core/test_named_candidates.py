"""The part-path node search against brute force, on deployments drawn from
``CHAOS_SEED``.

Where nodes serve windows from their m + 1 pigeonhole part keys, the system
entry's part-key directory names, for each window and routed group, the
blocks placed on the group that equal the window on one of its parts, and a
node scores exactly the named blocks it holds.  Per node and window, the
hits and the rows scored must equal an oracle that knows nothing of the
directory: every row the node holds of its group's placed blocks that
equals the window on one ``np.array_split`` part (by the block's own
codes), scored by the metric on the codes the node serves, the n nearest
inside the radius, ties broken by tree row.

Checked on RAM and spilled nodes, at replication 1 and 2, with a spilled
page rotted under the node, and inside an unsettled split, where the
source group's retained copies are no longer placed on it: they are not
scored, so the answer can only gain on what scoring them gave.  A spilled
node's cold reads are exactly the pages that hold a named block it holds
and were not resident when the call began.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

import repro.core.query as query_module
from repro.cluster.node import StorageNode
from repro.core.anchors import max_mismatches
from repro.core.params import QueryParams
from repro.scenario import answer_signature, build_deployment, planted_probes
from repro.seq import PROTEIN, random_set
from repro.tier import TierConfig

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
#: reads at 80 % identity: m = 1 at w = 8, two parts of 4 residues
PARAMS = QueryParams(k=4, n=6, i=0.8)


def part_match(index, codes: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Which rows of *codes* equal *window* on one of its parts."""
    mismatches = max_mismatches(index.segment_length, PARAMS.i)
    equal = codes == window
    return np.any([equal[:, part].all(axis=1) for part in np.array_split(
        np.arange(index.segment_length), mismatches + 1)], axis=0)


class Recorder:
    """Wraps ``StorageNode.local_knn`` and the query's ``named_knn`` (the
    part path of all-RAM nodes, several at once): keeps each part-path
    search's node, windows and searches, and checks a spilled node's cold
    reads against the cache as the call found it."""

    def __init__(self, monkeypatch, index) -> None:
        self.calls = []
        self.cold_calls = 0
        original = StorageNode.local_knn
        fused = query_module.named_knn

        def named_knn(jobs, k, max_radius):
            found = fused(jobs, k, max_radius)
            self.calls += [(node, windows, searches, max_radius)
                           for (node, windows, _), searches in zip(jobs, found)]
            return found

        monkeypatch.setattr(query_module, "named_knn", named_knn)

        def local_knn(node, windows, k, max_radius=float("inf"),
                      mismatches=None, letters=None, candidates=None):
            cold = self.cold_pages(node, candidates)
            searches, reads = original(node, windows, k, max_radius,
                                       mismatches, letters, candidates)
            if searches.path == "parts":
                self.calls.append((node, windows, searches, max_radius))
                if cold is not None:
                    pages = node.tier.reader.pages
                    assert (reads.seeks, reads.nbytes) == (
                        len(cold), sum(pages[page].length for page in cold))
                    self.cold_calls += bool(cold)
            return searches, reads

        monkeypatch.setattr(StorageNode, "local_knn", local_knn)

    @staticmethod
    def cold_pages(node, candidates):
        """The pages holding a named block *node* holds that are neither
        pinned nor cached (``None`` on a RAM node)."""
        tier = node.tier
        if tier is None or candidates is None:
            return None
        ids = np.concatenate(candidates)
        pages = {tier._row_of_block[block][0]
                 for block in ids[np.isin(ids, node.held)].tolist()}
        return sorted(page for page in pages if page not in tier._pinned_arrays
                      and not tier.cache.contains((node.node_id, page)))


def oracle(index, node, windows, radius):
    """Per window, ``(hits, rows scored)`` by brute force over the blocks
    *node* holds that are placed on its group."""
    ids = np.asarray(node.block_ids)
    placed = np.isin(ids, list(index.blocks_of_group.get(node.group_id, ())))
    own = index.store.codes_matrix(ids)
    served = np.asarray(node.tree.points)
    metric = node.tree.adapter.metric
    out = []
    for window in windows:
        rows = np.flatnonzero(placed & part_match(index, own, window))
        dists = metric.batch(window, served[rows]) if rows.size else np.empty(0)
        order = np.lexsort((rows, dists))
        hits = [(float(dists[at]), int(ids[rows[at]])) for at in order
                if dists[at] <= radius][:PARAMS.n]
        out.append((hits, rows.size))
    return out


def check_against_oracle(index, recorder) -> int:
    """Every recorded call equals the oracle; returns the rows scored."""
    scored = 0
    for node, windows, searches, radius in recorder.calls:
        found = [(hits, cost.evals) for hits, cost in searches]
        assert found == oracle(index, node, windows, radius), node.node_id
        scored += sum(cost.evals for _, cost in searches)
    recorder.calls.clear()
    return scored


def deployment(draw: random.Random, replication: int):
    group_size = draw.randint(max(2, replication), 3)
    mendel = build_deployment(
        draw.randrange(1000), (draw.randint(12, 20), draw.randint(90, 160)),
        group_count=draw.randint(2, 4), group_size=group_size,
        replication=replication,
    )
    probes, _ = planted_probes(mendel, 4, draw.randrange(1000), spread=True)
    probes += list(random_set(count=1, length=60, alphabet=PROTEIN,
                              rng=draw.randrange(1000), id_prefix="stray"))
    return mendel, probes


@pytest.mark.parametrize("replication", [1, 2])
def test_nodes_score_exactly_the_named_blocks(replication, monkeypatch):
    draw = random.Random(SEED * 1000 + replication)
    mendel, probes = deployment(draw, replication)
    index = mendel.index
    recorder = Recorder(monkeypatch, index)
    in_ram = [answer_signature(mendel.query(probe, PARAMS), counters=True)
              for probe in probes]
    assert check_against_oracle(index, recorder) > 0

    raw = sum(np.asarray(n.tree.points).nbytes for n in index.topology.nodes)
    mendel.spill(cache_bytes=raw // 10, config=TierConfig(
        page_rows=16, alphabet_size=PROTEIN.size))
    spilled = [answer_signature(mendel.query(probe, PARAMS), counters=True)
               for probe in probes]
    assert spilled == in_ram
    assert recorder.cold_calls > 0
    check_against_oracle(index, recorder)

    # Rot the page holding one node's nearest hit: the node scores what it
    # reads from that page, and no hit from it passes the verified read.
    for probe in probes:
        mendel.query(probe, PARAMS)
    node, block = next((node, hits[0][1]) for node, _, searches, _ in recorder.calls
                       for hits, _ in searches if hits)
    check_against_oracle(index, recorder)
    tier = node.tier
    rotten = tier._row_of_block[block][0]
    node.durable.corrupt_block(block)
    for probe in probes:
        mendel.query(probe, PARAMS)
    on_page = [hit for called, _, searches, _ in recorder.calls if called is node
               for hits, _ in searches for _, hit in hits
               if tier._row_of_block[hit][0] == rotten]
    assert not any(node.verify_blocks(on_page))
    check_against_oracle(index, recorder)


def test_an_unsettled_split_scores_only_placed_blocks(monkeypatch):
    """Inside an unsettled split the source group's nodes still hold the
    moved blocks, but the directory names them only for the new group: the
    nodes score exactly their placed blocks, and the answer holds every
    alignment that scoring the retained copies as well gives."""
    draw = random.Random(SEED * 1000 + 7)
    mendel, probes = deployment(draw, 1)
    index = mendel.index
    busiest = max(index.topology.groups,
                  key=lambda group: len(index.blocks_of_group[group.group_id]))
    index.split_group(busiest.group_id, settle=False)
    placed = index.blocks_of_group[busiest.group_id]
    assert any(set(node.block_ids) - placed for node in busiest.nodes)

    recorder = Recorder(monkeypatch, index)
    named = [set(answer_signature(mendel.query(probe, PARAMS))) for probe in probes]
    check_against_oracle(index, recorder)

    # The same queries with every held part match named, retained copies
    # included: what a node scored when it scored every row it held.
    scoring, fused = StorageNode.local_knn, query_module.named_knn

    def held_matches(node, windows):
        own = index.store.codes_matrix(node.block_ids)
        return [np.asarray(node.block_ids)[part_match(index, own, w)]
                for w in windows]

    def every_held_match(node, windows, k, max_radius=float("inf"),
                         mismatches=None, letters=None, candidates=None):
        if candidates is not None:
            candidates = held_matches(node, windows)
        return scoring(node, windows, k, max_radius, mismatches, letters,
                       candidates)

    def every_held_match_fused(jobs, k, max_radius):
        return fused([(node, windows, held_matches(node, windows))
                      for node, windows, _ in jobs], k, max_radius)

    monkeypatch.setattr(StorageNode, "local_knn", every_held_match)
    monkeypatch.setattr(query_module, "named_knn", every_held_match_fused)
    held = [set(answer_signature(mendel.query(probe, PARAMS))) for probe in probes]
    for mine, theirs in zip(named, held):
        assert mine >= theirs
