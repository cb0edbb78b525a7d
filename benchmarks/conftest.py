"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper at laptop scale,
prints the same rows/series the paper reports, and asserts the *shape*
claims (who wins, by roughly what factor, where behaviour changes) rather
than the testbed's absolute numbers.  A figure's shape checks are declared
once, in :data:`repro.bench.figures.FIGURES` (``repro bench <fig>`` reads
the same table); its ``test_fig*.py`` asserts each through ``test_shape``,
parametrized over the check names.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the printed tables; without it they appear only for failures.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark as reproducing a figure"
    )


@pytest.fixture()
def check(benchmark):
    """Run a shape-assertion body under the benchmark fixture.

    ``--benchmark-only`` (the documented way to run this suite) skips any
    test that does not use the benchmark fixture; routing assertion bodies
    through here keeps every shape check alive in that mode.
    """

    def run(body):
        benchmark.pedantic(body, rounds=1, iterations=1)

    return run
