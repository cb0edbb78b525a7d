"""Tests for the result-table harness (repro.bench.harness)."""

import pytest

from repro.bench.harness import format_table, growth_ratio, speedup


class TestFormatTable:
    def test_basic(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_missing_keys_blank(self):
        out = format_table([{"a": 1}, {"b": 2}], headers=["a", "b"])
        assert "1" in out and "2" in out

    def test_column_alignment(self):
        rows = [{"name": "x", "v": 1}, {"name": "longer", "v": 22}]
        lines = format_table(rows).splitlines()
        assert len({line.index("v") for line in lines[:1]})  # header exists
        widths = {len(line) for line in lines}
        assert len(widths) <= 2  # header + separator + rows all aligned


class TestGrowthRatio:
    def test_linear_growth_is_one(self):
        assert growth_ratio([1, 2, 4], [10, 20, 40]) == pytest.approx(1.0)

    def test_flat_series_near_zero(self):
        assert growth_ratio([1, 10], [5, 5]) == pytest.approx(0.1)

    def test_superlinear(self):
        assert growth_ratio([1, 2], [1, 8]) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            growth_ratio([1], [1])
        with pytest.raises(ValueError):
            growth_ratio([0, 1], [1, 2])


class TestSpeedup:
    def test_basic(self):
        assert speedup([100, 50, 25]) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup([1])
        with pytest.raises(ValueError):
            speedup([1, 0])

