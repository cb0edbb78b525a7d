"""Tests for repro.cluster.hashring."""

import pytest

from repro.cluster.hashring import FlatHash, sha1_int


class TestSha1Int:
    def test_deterministic(self):
        assert sha1_int(b"abc") == sha1_int(b"abc")

    def test_160_bits(self):
        assert 0 <= sha1_int(b"x") < 2**160


class TestFlatHash:
    def test_deterministic(self):
        fh = FlatHash(("a", "b", "c"))
        assert fh.assign(b"key") == fh.assign(b"key")

    def test_all_nodes_used(self):
        fh = FlatHash(("a", "b", "c", "d"))
        owners = {fh.assign(str(i).encode()) for i in range(200)}
        assert owners == {"a", "b", "c", "d"}

    def test_near_uniform(self):
        fh = FlatHash(tuple(f"n{i}" for i in range(10)))
        counts = {}
        n = 20_000
        for i in range(n):
            owner = fh.assign(str(i).encode())
            counts[owner] = counts.get(owner, 0) + 1
        for count in counts.values():
            assert abs(count - n / 10) < 0.15 * n / 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FlatHash(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FlatHash(("a", "a"))
