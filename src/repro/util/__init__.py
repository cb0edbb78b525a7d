"""Shared utilities: seeded RNG helpers and argument validation."""

from repro.util.rng import RandomSource, as_generator, spawn_children
from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
)

__all__ = [
    "RandomSource",
    "as_generator",
    "spawn_children",
    "check_fraction",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_type",
]
