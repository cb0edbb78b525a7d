"""Fig. 6b — average turnaround vs database size (1000-residue queries).

Paper claims: Mendel shows "nearly constant average turnaround times" as
the database grows (DHT/hash-table-like behaviour), while BLAST maintains
performance only while the database is memory resident and "progress comes
to a halt when the data volumes grow large".  Shape assertions: Mendel's
growth ratio is near zero; BLAST degrades super-linearly once past the
memory capacity; the crossover leaves Mendel far ahead at the largest size.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table

FIGURE = FIGURES["fig6b"]


@pytest.fixture(scope="module")
def result():
    return FIGURE.run()


def test_fig6b_series(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1)
    print()
    print(format_table(result.rows, title="Fig. 6b: turnaround vs database size"))
    sizes = result.series("db_residues")
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("name", FIGURE.checks)
def test_shape(result, check, name):
    def body():
        assert FIGURE.checks[name](result), FIGURE.summary(result)

    check(body)
