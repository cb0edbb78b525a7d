"""Fig. 5 — load distribution: standard flat hash vs the two-tier vp-LSH.

Paper claims: (a) SHA-1 alone balances near-perfectly; (b) Mendel's
hierarchical scheme is less perfect but the node-to-node difference stays
small (the paper bounds it at 1% of total volume on 100 GB / 50 nodes — at
our much smaller block count statistical noise is proportionally larger, so
the assertion scales the bound); (c) group-level clustering is visible
(nodes of one group hold similar shares because tier-2 is flat).
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.harness import format_table

FIGURE = FIGURES["fig5"]


@pytest.fixture(scope="module")
def result():
    return FIGURE.run()


def test_fig5_series(benchmark, result):
    benchmark.pedantic(lambda: None, rounds=1)  # timing handled by runner
    print()
    print(format_table(result.rows, title="Fig. 5: per-node storage share (%)"))
    print(
        f"flat spread = {result.meta['flat_spread_pct']:.3f}% | "
        f"mendel spread = {result.meta['mendel_spread_pct']:.3f}% "
        f"({result.meta['blocks']} blocks over {result.meta['nodes']} nodes)"
    )
    assert len(result.rows) == 50


@pytest.mark.parametrize("name", FIGURE.checks)
def test_shape(result, check, name):
    def body():
        assert FIGURE.checks[name](result), FIGURE.summary(result)

    check(body)
