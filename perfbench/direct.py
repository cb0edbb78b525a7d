"""``read_mapping`` and ``homology_search``: closed loop, one caller, direct
``Mendel.query`` on deployment D1.

The two share every layer and differ in the mix: reads at 2 % error route
point-to-point and spend their time in vp-tree k-NN; low-identity homologs
route widely and spend a third of theirs in gapped extension.
"""

from __future__ import annotations

from time import perf_counter

from repro import Mendel
from repro.obs.trace import TraceContext

from perfbench import check, layers
from perfbench.harness import (
    Options,
    Result,
    alternating,
    fixed_pass,
    run_setup,
    sweep,
)
from perfbench.stats import ratio

#: share of a traced read_mapping run spent comparing queries with and
#: without the program's own ``TraceContext``
TRACE_CTX_SHARE = 0.2


def run(options: Options) -> Result:
    result = Result.of(options)
    tracer, metrics = result.tracer, result.metrics

    def setup():
        inputs = options.make_inputs()
        mendel = Mendel.build(inputs.database, inputs.config)
        for read in inputs.pools["warmup"]:
            mendel.query(read.record, inputs.params)
        return inputs, mendel

    (inputs, mendel), setup_speed = run_setup(result, setup)
    result.inputs = inputs
    reads = inputs.pools["timed"]
    classes = len({read.cls for read in reads})

    def query(record):
        return mendel.query(record, inputs.params)

    if tracer is None:
        plain = sweep(result, query, reads, options.seconds, "timed", classes)
        answered = [plain]
    else:
        ctx_seconds = (
            TRACE_CTX_SHARE * options.seconds
            if options.workload == "read_mapping" else 0.0
        )
        rows_before = layers.served_rows(mendel)
        plain, traced = alternating(
            result, query, reads, options.seconds - ctx_seconds, classes, tracer
        )
        rows = layers.served_rows(mendel) - rows_before
        answered = [plain, traced]
    for done in answered:
        for read, report in zip(done.reads, done.reports):
            check.check_direct_report(result.tally, read, report)
    # In a traced run the untraced rounds give the end-to-end numbers, at
    # lower resolution; selftest and run_traced.json use them.
    metrics.update(plain.query_metrics())
    metrics.update(plain.repeatable_metrics(
        inputs.plan["repeatable_queries"],
        check.source_pairs_found if options.workload == "read_mapping"
        else check.homolog_found,
    ))
    if tracer is None:
        return result.finish()

    metrics.update(layers.build_metrics(tracer, mendel, setup_speed))
    kernels = layers.distance_kernels(
        lambda: fixed_pass(result, query, reads[:classes])
    )
    metrics.update(kernels)
    metrics.update(layers.engine_metrics(
        tracer, "traced", traced.reports,
        kernels.get("seq.matrix_batch_ns_per_pair", 0.0), traced.speed,
    ))
    metrics["vptree.visit_share"] = layers.visit_share(
        plain.reports + traced.reports, rows
    )
    metrics["sim.events_per_s"] = layers.sim_events_per_s()
    metrics["obs.bench_trace_overhead_share"] = 1.0 - ratio(
        traced.query_metrics()["queries_per_s"], metrics["queries_per_s"]
    )
    if ctx_seconds:
        metrics["obs.trace_ctx_overhead_share"] = _trace_ctx_overhead(
            mendel, inputs, reads, classes, ctx_seconds,
            offset=len(plain.reads) + len(traced.reads),
        )
    return result.finish()


def _trace_ctx_overhead(mendel, inputs, reads, classes, seconds, offset) -> float:
    """Share of wall time ``trace_ctx=TraceContext()`` adds to a direct query:
    the same reads with and without it, alternating which goes first."""
    with_ctx = without = 0.0
    position = offset
    deadline = perf_counter() + seconds
    flip = False
    while perf_counter() < deadline:
        for _ in range(classes):
            record = reads[position % len(reads)].record
            position += 1
            for traced in ((True, False) if flip else (False, True)):
                start = perf_counter()
                mendel.query(
                    record, inputs.params,
                    trace_ctx=TraceContext() if traced else None,
                )
                if traced:
                    with_ctx += perf_counter() - start
                else:
                    without += perf_counter() - start
            flip = not flip
    return ratio(with_ctx, without) - 1.0
