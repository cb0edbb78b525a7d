"""Fig. 6d — sensitivity vs similarity level (Mendel vs BLAST).

Paper protocol: a generated 1000-residue target; groups of sequences
mutated to decreasing similarity levels; the percentage of matches found is
recorded per level.  Paper claims: the NNS "overcomes the challenge of
finding alignment when the similarity is low ... it can better identify
lower similarity matches" — Mendel's curve dominates BLAST's as identity
drops.  Shape assertions: both systems are perfect at high identity, recall
decays with identity, and Mendel's aggregate recall at the low end is at
least BLAST's.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table

FIGURE = FIGURES["fig6d"]


@pytest.fixture(scope="module")
def result():
    return FIGURE.run()


def test_fig6d_series(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(result.rows, title="Fig. 6d: sensitivity vs similarity"))
    assert [r["identity_pct"] for r in result.rows] == [
        90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0,
    ]


@pytest.mark.parametrize("name", FIGURE.checks)
def test_shape(result, check, name):
    def body():
        assert FIGURE.checks[name](result), FIGURE.summary(result)

    check(body)
