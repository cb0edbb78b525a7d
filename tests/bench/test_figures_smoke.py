"""Tiny-scale smoke tests of every figure runner.

These confirm the experiment plumbing end-to-end with laptop-trivial sizes;
the real reproductions (with shape assertions) live under ``benchmarks/``.
"""

from functools import cache

import pytest

from repro.bench.figures import FIGURES
from repro.bench.workloads import FamilySpec
from repro.core.params import MendelConfig, QueryParams

TINY_SPEC = FamilySpec(families=6, members_per_family=2, length=80)
TINY_CONFIG = MendelConfig(group_count=2, group_size=2, sample_size=128, seed=1)
TINY_PARAMS = QueryParams(k=8, n=4, i=0.9)

#: each figure's runner keywords at smoke scale
SMOKE_KWARGS = {
    "fig5": dict(spec=TINY_SPEC, config=TINY_CONFIG),
    "fig6a": dict(
        lengths=(100, 200),
        queries_per_length=1,
        spec=TINY_SPEC,
        config=TINY_CONFIG,
        params=TINY_PARAMS,
    ),
    "fig6b": dict(
        family_counts=(4, 8),
        queries=1,
        query_length=120,
        members_per_family=2,
        seq_length=80,
        config=TINY_CONFIG,
        params=TINY_PARAMS,
        blast_memory_residues=None,
    ),
    "fig6c": dict(
        group_counts=(1, 2),
        group_size=2,
        spec=TINY_SPEC,
        queries=1,
        query_length=120,
        params=TINY_PARAMS,
    ),
    "fig6d": dict(
        levels=(0.9, 0.5),
        group_size=2,
        target_length=150,
        background_families=2,
        config=TINY_CONFIG,
        params=QueryParams(k=8, n=4, i=0.3, c=0.3),
    ),
}


@cache
def smoke(key):
    return FIGURES[key].run(**SMOKE_KWARGS[key])


def test_fig5_smoke():
    result = smoke("fig5")
    assert len(result.rows) == 4
    assert result.meta["blocks"] > 0
    total = sum(r["mendel_pct"] for r in result.rows)
    assert total == pytest.approx(100.0)


def test_fig6a_smoke():
    result = smoke("fig6a")
    assert [r["query_length"] for r in result.rows] == [100, 200]
    assert all(r["mendel_ms"] > 0 and r["blast_ms"] > 0 for r in result.rows)


def test_fig6b_smoke():
    sizes = [r["db_residues"] for r in smoke("fig6b").rows]
    assert sizes == sorted(sizes)


def test_fig6c_smoke():
    assert [r["nodes"] for r in smoke("fig6c").rows] == [2, 4]


def test_fig6d_smoke():
    result = smoke("fig6d")
    assert [r["identity_pct"] for r in result.rows] == [90.0, 50.0]
    for row in result.rows:
        assert 0.0 <= row["mendel_found_pct"] <= 100.0
        assert 0.0 <= row["blast_found_pct"] <= 100.0
    # At 90% identity both systems must find essentially everything.
    assert result.rows[0]["mendel_found_pct"] == 100.0


@pytest.mark.parametrize("key", FIGURES)
def test_checks_give_one_verdict_per_name(key):
    figure = FIGURES[key]
    result = smoke(key)
    verdicts = result.checks()
    assert verdicts and list(verdicts) == list(figure.checks)
    assert all(type(ok) is bool for ok in verdicts.values())
    assert isinstance(figure.summary(result), str)
