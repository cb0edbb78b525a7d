"""Tests for inverted-index blocks (repro.core.blocks)."""

import numpy as np
import pytest

from repro.core.blocks import BlockStore, InvertedIndexBlock
from repro.seq.alphabet import DNA
from repro.seq.records import SequenceRecord, SequenceSet


def make_db(*texts: str) -> SequenceSet:
    s = SequenceSet(alphabet=DNA)
    for i, text in enumerate(texts):
        s.add(SequenceRecord.from_text(f"s{i}", text, "dna"))
    return s


class TestBlockCreation:
    def test_count_is_sliding_window(self):
        store = BlockStore(make_db("ACGTACGTAC"), segment_length=4)
        # L=10, w=4 -> 7 stride-1 windows.
        assert len(store) == 7

    def test_block_metadata(self):
        store = BlockStore(make_db("ACGTACGT"), segment_length=4)
        first = store.block(0)
        assert first.seq_id == "s0"
        assert (first.start, first.end) == (0, 4)
        assert first.prev_id == -1
        assert first.next_id == 1
        last = store.block(len(store) - 1)
        assert last.next_id == -1
        assert last.prev_id == len(store) - 2

    def test_neighbour_chain_consistent(self):
        store = BlockStore(make_db("ACGTACGTACGT"), segment_length=4)
        for block in store.blocks:
            if block.next_id != -1:
                assert store.block(block.next_id).prev_id == block.block_id

    def test_codes_are_views(self):
        db = make_db("ACGTACGT")
        store = BlockStore(db, segment_length=4)
        codes = store.codes_of(2)
        assert codes.base is db["s0"].codes or codes.base is db["s0"].codes.base
        assert DNA.decode(codes) == "GTAC"

    def test_multiple_sequences(self):
        store = BlockStore(make_db("ACGTAC", "GGGCCC"), segment_length=4)
        assert len(store) == 6  # 3 per sequence
        # Neighbour refs never cross sequence boundaries.
        last_of_first = store.block(2)
        assert last_of_first.next_id == -1
        first_of_second = store.block(3)
        assert first_of_second.prev_id == -1
        assert first_of_second.seq_id == "s1"

    def test_short_sequence_contributes_nothing(self):
        store = BlockStore(make_db("ACG", "ACGTACGT"), segment_length=4)
        assert all(b.seq_id == "s1" for b in store.blocks)

    def test_blocks_of_sequence(self):
        store = BlockStore(make_db("ACGTAC", "GGGCCC"), segment_length=4)
        ids = [b.block_id for b in store.blocks_of_sequence("s1")]
        assert ids == [3, 4, 5]

    def test_segment_length_validation(self):
        with pytest.raises(ValueError, match="segment_length"):
            BlockStore(make_db("ACGT"), segment_length=1)


class TestAccess:
    def test_record_of(self):
        store = BlockStore(make_db("ACGTAC", "GGGCCC"), segment_length=4)
        assert store.record_of(4).seq_id == "s1"

    def test_bad_block_id(self):
        store = BlockStore(make_db("ACGTAC"), segment_length=4)
        with pytest.raises(KeyError):
            store.block(99)
        with pytest.raises(KeyError):
            store.block(-1)

    def test_codes_matrix(self):
        store = BlockStore(make_db("ACGTACGT"), segment_length=4)
        matrix = store.codes_matrix([0, 2])
        assert matrix.shape == (2, 4)
        assert DNA.decode(matrix[1]) == "GTAC"

    def test_codes_matrix_is_the_stacked_codes_of(self):
        """One gather, the same rows — also for blocks of records ingested
        later (the insert path), past several growths of the flat array, in
        any order and with repeats; short records still add nothing."""
        rng = np.random.default_rng(5)
        store = BlockStore(make_db("ACGTACGTAC", "ACG", "GGGCCCAT"), segment_length=4)
        for number in range(40):
            text = "".join(rng.choice(list("ACGT"), int(rng.integers(1, 30))))
            before = len(store)
            store._ingest(SequenceRecord.from_text(f"late{number}", text, DNA))
            assert len(store) - before == max(0, len(text) - 3)
        ids = rng.integers(0, len(store), 200)
        assert np.array_equal(
            store.codes_matrix(ids), np.stack([store.codes_of(int(i)) for i in ids])
        )
        everything = store.codes_matrix(range(len(store)))
        assert everything.dtype == np.uint8
        assert np.array_equal(
            everything, np.stack([store.codes_of(i) for i in range(len(store))])
        )
        assert store.codes_matrix([]).shape == (0, 4)

    def test_codes_matrix_bad_block_id(self):
        store = BlockStore(make_db("ACGTAC"), segment_length=4)
        for bad in ([0, 3], [-1, 0], [99]):
            with pytest.raises(KeyError, match="no block with id"):
                store.codes_matrix(bad)

    def test_block_key_stable_and_unique(self):
        store = BlockStore(make_db("ACGTAC", "GGGCCC"), segment_length=4)
        keys = {store.block_key(b.block_id) for b in store.blocks}
        assert len(keys) == len(store)


class TestInvertedIndexBlock:
    def test_length(self):
        b = InvertedIndexBlock(0, "s", 3, 11, -1, -1)
        assert b.length == 8

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="empty block"):
            InvertedIndexBlock(0, "s", 5, 5, -1, -1)
