"""Fig. 6c — scalability: turnaround vs cluster size.

Paper claims "sufficient scalability with respect to the size of the
cluster": the same database indexed over more nodes answers the e_coli-style
query set faster.  Shape assertions: turnaround decreases monotonically with
node count and the 5 -> 50 node speedup is substantial.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table

FIGURE = FIGURES["fig6c"]


@pytest.fixture(scope="module")
def result():
    return FIGURE.run()


def test_fig6c_series(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(result.rows, title="Fig. 6c: turnaround vs cluster size"))
    assert [r["nodes"] for r in result.rows] == [5, 10, 20, 50]


@pytest.mark.parametrize("name", FIGURE.checks)
def test_shape(result, check, name):
    def body():
        assert FIGURE.checks[name](result), FIGURE.summary(result)

    check(body)
