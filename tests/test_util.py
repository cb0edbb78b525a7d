"""Tests for the shared utilities (repro.util)."""

import time

import numpy as np
import pytest

from repro.obs.timer import Stopwatch, format_duration
from repro.util.rng import as_generator, spawn_children
from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(7).integers(0, 1000, 10)
        b = as_generator(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_numpy_integer_accepted(self):
        assert isinstance(as_generator(np.int64(5)), np.random.Generator)

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError, match="random source"):
            as_generator("seed")

    def test_spawn_children_independent(self):
        children = spawn_children(11, 4)
        assert len(children) == 4
        draws = [c.integers(0, 10**9) for c in children]
        assert len(set(draws)) == 4  # overwhelmingly likely when independent

    def test_spawn_children_deterministic(self):
        a = [c.integers(0, 10**9) for c in spawn_children(3, 3)]
        b = [c.integers(0, 10**9) for c in spawn_children(3, 3)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_children(1, -1)

    def test_spawn_zero_ok(self):
        assert spawn_children(1, 0) == []


class TestStopwatch:
    def test_accumulates_laps(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.002)
        with sw:
            time.sleep(0.002)
        assert len(sw.laps) == 2
        assert sw.elapsed == pytest.approx(sum(sw.laps))
        assert sw.mean_lap == pytest.approx(sw.elapsed / 2)

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError, match="already running"):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not running"):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0 and sw.laps == []

    def test_mean_without_laps_rejected(self):
        with pytest.raises(ValueError):
            _ = Stopwatch().mean_lap


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (5e-9, "5.0 ns"),
            (2.5e-6, "2.5 us"),
            (3.2e-3, "3.2 ms"),
            (1.5, "1.50 s"),
            (300.0, "5.0 min"),
        ],
    )
    def test_units(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_fraction(self):
        check_fraction("x", 0.5)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_fraction("x", bad)

    def test_check_in_range(self):
        check_in_range("x", 5, 0, 10)
        with pytest.raises(ValueError, match=r"\[0, 10\]"):
            check_in_range("x", 11, 0, 10)

    def test_check_type(self):
        check_type("x", 5, int)
        check_type("x", 5, (int, float))
        with pytest.raises(TypeError, match="x must be"):
            check_type("x", "5", int)
