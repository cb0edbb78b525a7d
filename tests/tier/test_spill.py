"""Spill/unspill through the full deployment: equivalence, reporting,
auto-respill, durability dispatch, and the persist path."""

from functools import partial

import numpy as np

from repro.core import Mendel, MendelConfig, QueryParams, load_index, save_index
from repro.core.query import QueryEngine
from repro.scenario import answer_signature
from repro.seq import PROTEIN, random_set
from repro.seq.mutate import mutate_to_identity
from repro.store.durable import SNAPSHOT_FILE, WAL_FILE
from repro.tier import NodeTier, TierConfig, TieredPoints


def build(seed=5):
    db = random_set(count=10, length=120, alphabet=PROTEIN, rng=41,
                    id_prefix="t")
    mendel = Mendel.build(
        db,
        MendelConfig(group_count=2, group_size=2, sample_size=128, seed=seed),
    )
    return db, mendel


def probes(db, count=4):
    return [
        mutate_to_identity(db.records[i % len(db)], 0.85, rng=60 + i,
                           seq_id=f"probe-{i}")
        for i in range(count)
    ]


signature = partial(answer_signature, counters=True)


class TestSpillState:
    def test_spill_swaps_points_and_preserves_bytes(self):
        _db, mendel = build()
        node = mendel.index.topology.nodes[0]
        before = np.asarray(node.tree.points).copy()
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        assert mendel.index.tiered
        assert all(n.tiered for n in mendel.index.topology.nodes)
        assert isinstance(node.tree.points, TieredPoints)
        np.testing.assert_array_equal(np.asarray(node.tree.points), before)

    def test_tier_report_rollup(self):
        _db, mendel = build()
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        report = mendel.tier_report()
        assert report["enabled"]
        assert report["spilled_nodes"] == len(mendel.index.topology.nodes)
        assert report["bytes_on_disk"] > 0
        assert report["raw_bytes"] > report["bytes_on_disk"] * 0  # sane
        assert report["compression_ratio"] > 0
        assert 0.0 <= report["resident_fraction"] <= 1.0
        assert report["pages"] > 0
        assert "summary_bytes" not in report  # summaries stay on disk
        assert report["cache"]["capacity_bytes"] == 1 << 14

    def test_ram_only_report_is_zeroed(self):
        _db, mendel = build()
        report = mendel.tier_report()
        assert not report["enabled"]
        assert report["spilled_nodes"] == 0
        assert report["bytes_on_disk"] == 0
        assert report["compression_ratio"] == 0.0
        assert report["resident_fraction"] == 0.0
        assert report["cache"] is None


class TestEquivalence:
    def test_spill_unspill_round_trip_answers_identically(self):
        db, mendel = build()
        params = QueryParams(k=6, n=6, i=0.7)
        queries = probes(db)
        warm = [signature(mendel.query(q, params)) for q in queries]

        mendel.spill(cache_bytes=1 << 12, config=TierConfig(page_rows=16))
        cold = [signature(mendel.query(q, params)) for q in queries]
        assert cold == warm

        mendel.unspill()
        assert not mendel.index.tiered
        assert all(not n.tiered for n in mendel.index.topology.nodes)
        back = [signature(mendel.query(q, params)) for q in queries]
        assert back == warm

    def test_respill_with_different_config(self):
        db, mendel = build()
        params = QueryParams(k=6, n=6, i=0.7)
        query = probes(db, 1)[0]
        warm = signature(mendel.query(query, params))
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        mendel.spill(cache_bytes=1 << 10, config=TierConfig(page_rows=64))
        assert signature(mendel.query(query, params)) == warm


class TestBoundedMemory:
    def test_a_cold_search_never_materialises_the_node(self, monkeypatch):
        """``capacity_x`` counts pinned pages + the cache budget as the
        tier's RAM: that is honest only while a query reads page by page
        and never rebuilds a node's code matrix."""
        db, mendel = build()
        params = QueryParams(k=6, n=6, i=0.7)
        queries = probes(db)
        warm = [signature(mendel.query(q, params)) for q in queries]
        mendel.spill(cache_bytes=1 << 10, config=TierConfig(page_rows=16))

        def refuse(*_args, **_kwargs):
            raise AssertionError("a query materialised a spilled node")

        monkeypatch.setattr(NodeTier, "materialize", refuse)
        monkeypatch.setattr(TieredPoints, "__array__", refuse)
        assert [signature(mendel.query(q, params)) for q in queries] == warm


class TestDurabilityDispatch:
    def test_spilled_node_serves_manifest_and_digests(self):
        _db, mendel = build()
        node = mendel.index.topology.nodes[0]
        ram_manifest = node.durable.manifest_ids()
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        assert node.durable.manifest_ids() == ram_manifest
        # The snapshot + WAL are gone: the block file IS the durable state.
        assert not node.disk.exists(SNAPSHOT_FILE)
        assert not node.disk.exists(WAL_FILE)
        for block_id in ram_manifest[:3]:
            assert node.durable.verify_many([block_id])[0]
            assert node.durable.digest(block_id) is not None

    def test_unspill_rejournals_the_wal(self):
        _db, mendel = build()
        node = mendel.index.topology.nodes[0]
        ram_manifest = node.durable.manifest_ids()
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        mendel.unspill()
        assert node.durable.manifest_ids() == ram_manifest
        assert node.durable.verify_many(ram_manifest[:3]) == [True] * 3


class TestAutoRespill:
    def test_store_blocks_respills_attached_node(self):
        _db, mendel = build()
        mendel.spill(cache_bytes=1 << 14, config=TierConfig(page_rows=16))
        node = mendel.index.topology.nodes[0]
        held = node.durable.manifest_ids()
        donor = next(
            n for n in mendel.index.topology.nodes
            if n.group_id == node.group_id and n.node_id != node.node_id
        )
        new_block = next(
            b for b in donor.durable.manifest_ids() if b not in held
        )
        codes = mendel.index.store.codes_matrix([new_block])
        node.store_blocks(codes, [new_block])
        # The write folded in and the node spilled itself back out.
        assert node.tiered
        assert new_block in node.durable.manifest_ids()


class TestPersistPath:
    def test_saved_index_loads_without_tier_state(self, tmp_path):
        db, mendel = build()
        params = QueryParams(k=6, n=6, i=0.7)
        query = probes(db, 1)[0]
        warm = signature(mendel.query(query, params))
        path = tmp_path / "deploy.npz"
        save_index(mendel.index, path)
        loaded = load_index(path)
        assert loaded.tier_cache is None
        assert loaded.tier_config is None
        assert not loaded.tiered
        assert loaded.tier_report()["bytes_on_disk"] == 0
        # And a loaded index can spill and still answer identically.
        remote = Mendel(index=loaded, engine=QueryEngine(loaded))
        loaded.spill_to_tier(config=TierConfig(
            page_rows=16, cache_bytes=1 << 12,
            alphabet_size=loaded.alphabet.size))
        assert signature(remote.query(query, params)) == warm
