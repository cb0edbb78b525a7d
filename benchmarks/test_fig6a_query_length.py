"""Fig. 6a — average turnaround vs query length (Mendel vs BLAST).

Paper claims: the length of an alignment query has little effect on Mendel's
turnaround, while BLAST's grows with length; Mendel is faster throughout.
Shape assertions: Mendel wins at every length, and its absolute slope
(ms per residue) is a small fraction of BLAST's.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table

FIGURE = FIGURES["fig6a"]


@pytest.fixture(scope="module")
def result():
    return FIGURE.run()


def test_fig6a_series(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(result.rows, title="Fig. 6a: turnaround vs query length"))
    print(f"meta: {result.meta}")
    assert [r["query_length"] for r in result.rows] == [
        500, 1000, 1500, 2000, 2500, 3000,
    ]


@pytest.mark.parametrize("name", FIGURE.checks)
def test_shape(result, check, name):
    def body():
        assert FIGURE.checks[name](result), FIGURE.summary(result)

    check(body)
