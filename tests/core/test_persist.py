"""Tests for index persistence (repro.core.persist)."""

import io
import json
import os

import numpy as np
import pytest

from repro.bench.workloads import FamilySpec
from repro.cluster.node import StorageNode
from repro.core import Mendel, MendelConfig, QueryParams
from repro.core.index import MendelIndex
from repro.core.persist import PersistError, load_index, save_index
from repro.core.query import QueryEngine
from repro.scenario import (
    PARAMS,
    answer_signature,
    build_deployment,
    planted_probes,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.seq.mutate import mutate_to_identity
from tests.core.test_index import assert_holdings
from tests.core.test_persist_errors import _repack, _unwrap

SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def built():
    db = random_set(count=10, length=90, alphabet=PROTEIN, rng=81, id_prefix="s")
    index = MendelIndex(
        db, MendelConfig(group_count=2, group_size=2, sample_size=128, seed=13)
    )
    return index


class TestRoundtrip:
    def test_placement_identical(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        assert len(loaded.store) == len(built.store)
        assert loaded.node_of_block == built.node_of_block
        assert loaded.stats.per_node_blocks == built.stats.per_node_blocks

    def test_database_identical(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        for original in built.database:
            copy = loaded.database[original.seq_id]
            assert np.array_equal(copy.codes, original.codes)
            assert copy.description == original.description

    def test_queries_identical(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        target = built.database.records[4]
        probe = mutate_to_identity(target, 0.85, rng=2, seq_id="probe")
        params = QueryParams(k=4, n=4, i=0.6)
        original = QueryEngine(built).run(probe, params)
        reloaded = QueryEngine(loaded).run(probe, params)
        assert original.alignments == reloaded.alignments

    def test_loaded_index_accepts_growth(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        extra = random_set(count=2, length=90, alphabet=PROTEIN, rng=91,
                           id_prefix="late")
        loaded.insert_sequences(extra)
        probe = mutate_to_identity(extra.records[0], 0.9, rng=3, seq_id="p")
        report = QueryEngine(loaded).run(probe, QueryParams(k=4, n=4, i=0.7))
        assert report.alignments[0].subject_id == "late-000000"

    def test_replicated_index_roundtrip(self, tmp_path):
        db = random_set(count=6, length=80, alphabet=PROTEIN, rng=83)
        index = MendelIndex(
            db,
            MendelConfig(group_count=2, group_size=3, replication=2,
                         sample_size=64, seed=7),
        )
        path = tmp_path / "replicated.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.stats.per_node_blocks == index.stats.per_node_blocks


def with_ring_placement(path, value: bool):
    """A copy of the archive at *path* whose header config names
    ``ring_placement`` as archives written before placement was flat SHA-1
    only do (re-checksummed, so only the key differs)."""
    with np.load(io.BytesIO(_unwrap(path)), allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode())
    header["config"]["ring_placement"] = value
    out = path.with_name(f"ring-{value}.npz")
    _repack(path, out, header=np.frombuffer(json.dumps(header).encode(),
                                            dtype=np.uint8))
    return out


@pytest.mark.chaos
class TestReloadsWhereSaved:
    """A reloaded deployment holds every block where the saved one did, one
    copy or two, from an archive of this version or one whose config still
    names ``ring_placement: false``, on ``CHAOS_SEED``-drawn corpora: the
    same per-node contents in the same order (which fixes each tree), the
    same primaries and the same answers and counters."""

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("legacy_header", [False, True])
    def test_round_trip(self, legacy_header, replication, tmp_path):
        seed = int(np.random.default_rng(
            [SEED, replication, legacy_header]).integers(0, 2**16))
        built = build_deployment(
            seed, FamilySpec(6, 3, 100), group_count=2, group_size=3,
            replication=replication,
        )
        path = tmp_path / "deploy.npz"
        save_index(built.index, path)
        if legacy_header:
            path = with_ring_placement(path, False)
        index = load_index(path)
        loaded = Mendel(index=index, engine=QueryEngine(index))

        assert index.config == built.index.config
        assert {n.node_id: n.block_ids for n in index.topology.nodes} == {
            n.node_id: n.block_ids for n in built.index.topology.nodes
        }
        assert index.node_of_block == built.index.node_of_block
        assert index.stats.per_node_blocks == built.index.stats.per_node_blocks
        assert_holdings(index)
        probes, _ = planted_probes(built, 3, rng=seed, spread=True)
        for probe in probes:
            assert answer_signature(
                loaded.query(probe, PARAMS), counters=True
            ) == answer_signature(built.query(probe, PARAMS), counters=True)


class TestRingPlacedArchive:
    def test_refused(self, built, tmp_path):
        """A ring placement cannot be rebuilt, so an archive that saved one
        is refused rather than loaded with its blocks where flat SHA-1 would
        put them."""
        save_index(built, tmp_path / "index.npz")
        with pytest.raises(PersistError, match="ring"):
            load_index(with_ring_placement(tmp_path / "index.npz", True))


class TestTopologyChangedArchive:
    """The config rebuilds the cluster it names; an index saved after its
    node list changed is refused before a block is stored, not reloaded
    with blocks on nodes the rebuilt routing never asks."""

    @staticmethod
    def _index():
        db = random_set(count=6, length=80, alphabet=PROTEIN, rng=87)
        return MendelIndex(
            db, MendelConfig(group_count=2, group_size=3, sample_size=64, seed=9)
        )

    def _assert_refused(self, index, tmp_path, monkeypatch):
        save_index(index, tmp_path / "changed.npz")
        stored = []
        monkeypatch.setattr(
            StorageNode, "store_blocks",
            lambda node, codes, ids: stored.append(node.node_id),
        )
        with pytest.raises(ValueError, match="cluster shape"):
            load_index(tmp_path / "changed.npz")
        assert stored == []

    def test_saved_after_merge_refused(self, tmp_path, monkeypatch):
        index = self._index()
        source, target = (g.group_id for g in index.topology.groups)
        index.merge_groups(source, target)
        self._assert_refused(index, tmp_path, monkeypatch)

    def test_saved_after_remove_node_refused(self, tmp_path, monkeypatch):
        index = self._index()
        index.remove_node(index.topology.groups[0].nodes[-1].node_id)
        self._assert_refused(index, tmp_path, monkeypatch)

    def test_primary_outside_node_list_refused(self, built):
        nodes = [node.node_id for node in built.topology.nodes]
        primaries = [0] * len(built.store)
        primaries[-1] = len(nodes)
        with pytest.raises(ValueError, match="cluster shape"):
            MendelIndex(built.database, built.config,
                        placement=(nodes, primaries))


class TestFacadeIntegration:
    def test_mendel_save_load(self, tmp_path):
        db = random_set(count=8, length=80, alphabet=PROTEIN, rng=85)
        mendel = Mendel.build(
            db, MendelConfig(group_count=2, group_size=2, sample_size=64, seed=3)
        )
        path = tmp_path / "m.npz"
        save_index(mendel.index, path)
        restored = Mendel(index=load_index(path), engine=None)
        restored.engine = QueryEngine(restored.index)
        assert restored.block_count == mendel.block_count
