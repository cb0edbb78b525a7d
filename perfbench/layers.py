"""Per-layer numbers: derived from spans, read from public counters, or timed
by stand-alone calls on inputs captured from the workload.

Layers are ``repro``'s packages; every metric name starts with its layer.
A layer a workload does not exercise reports 0 there.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from perfbench.calibrate import Calibrator
from perfbench.stats import ratio
from perfbench.trace import Tracer

#: kernel inputs kept per capture (the issue's "first 2,000")
CAPTURE_LIMIT = 2000


# -- capture -------------------------------------------------------------------------


@contextmanager
def capture_calls(owner, attr: str, limit: int = CAPTURE_LIMIT):
    """Record the arguments of the first *limit* calls of ``owner.attr``
    while the block runs (arrays are copied); yields the list."""
    original = getattr(owner, attr)
    calls: list[tuple] = []

    def recording(*args, **kwargs):
        if len(calls) < limit:
            calls.append(tuple(
                np.array(a) if isinstance(a, np.ndarray) else a for a in args
            ))
        return original(*args, **kwargs)

    setattr(owner, attr, recording)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def _time_calls(fn, calls: list[tuple], min_seconds: float = 0.05) -> float:
    """Mean seconds per call of ``fn(*args)`` over *calls*, at reference
    speed, repeated until *min_seconds* have been measured."""
    if not calls:
        return 0.0
    calibrator = Calibrator()
    start = perf_counter()
    for args in calls:
        fn(*args)
    # Passes per calibration bracket: enough that the bracket is not the cost.
    passes = max(1, int(0.01 / max(perf_counter() - start, 1e-7)))
    done, elapsed = 0, 0.0
    while elapsed < min_seconds:
        before = calibrator.sample()
        start = perf_counter()
        for _ in range(passes):
            for args in calls:
                fn(*args)
        raw = perf_counter() - start
        elapsed += raw / calibrator.factor(before, calibrator.sample())
        done += passes
    return elapsed / (done * len(calls))


# -- stand-alone kernels ---------------------------------------------------------------


def distance_kernels(run_queries) -> dict[str, float]:
    """``MatrixDistance.batch`` / ``__call__`` timed alone, on the (window,
    bucket rows) and vantage pairs that *run_queries()* feeds them."""
    from repro.vptree.metric import MetricAdapter

    # Adapters bind their metric's ``batch`` once, at construction, so the
    # inputs are captured one level up, where every call is looked up afresh.
    with capture_calls(MetricAdapter, "batch") as batches, \
            capture_calls(MetricAdapter, "pair") as pairs:
        run_queries()
    if not batches or not pairs:
        return {}
    metric_type = type(batches[0][0].metric)
    batch_calls = [
        (adapter.metric, query, np.atleast_2d(rows)) for adapter, query, rows in batches
    ]
    pair_calls = [(adapter.metric, a, b) for adapter, a, b in pairs]
    per_batch = _time_calls(metric_type.batch, batch_calls)
    rows = sum(args[2].shape[0] for args in batch_calls) / len(batch_calls)
    return {
        "seq.matrix_batch_ns_per_pair": ratio(per_batch * 1e9, rows),
        "seq.matrix_pair_us": _time_calls(metric_type.__call__, pair_calls) * 1e6,
    }


def sim_events_per_s(processes: int = 10_000) -> float:
    """Trivial processes through ``Simulation.spawn`` / ``run``: what the
    discrete-event kernel costs before any query work."""
    from repro.sim.engine import Simulation

    def trivial():
        yield 0.001

    sim = Simulation()
    calibrator = Calibrator()
    before = calibrator.sample()
    start = perf_counter()
    for _ in range(processes):
        sim.spawn(trivial())
    sim.run()
    seconds = perf_counter() - start
    return ratio(
        sim.events_processed, seconds / calibrator.factor(before, calibrator.sample())
    )


def wire_costs(report) -> dict[str, float]:
    """``protocol`` costs on one captured reply."""
    from repro.serve.protocol import decode_line, encode, report_to_dict

    message = {"id": "q", "ok": True, "cached": True, **report_to_dict(report)}
    line = encode(message)
    return {
        "serve.report_to_dict_us": _time_calls(report_to_dict, [(report,)]) * 1e6,
        "serve.encode_us": _time_calls(encode, [(message,)]) * 1e6,
        "serve.decode_us": _time_calls(decode_line, [(line,)]) * 1e6,
    }


def page_codec_costs(encode_calls: list[tuple]) -> dict[str, float]:
    """``codec.encode_page`` / ``decode_page`` on pages captured during a spill."""
    from repro.tier.codec import decode_page, encode_page

    decode_calls = []
    for rows, centroid, alphabet_size in encode_calls:
        method, payload = encode_page(rows, centroid, alphabet_size)
        decode_calls.append(
            (method, payload, rows.shape[0], rows.shape[1], centroid, alphabet_size)
        )
    return {
        "tier.encode_page_us": _time_calls(encode_page, encode_calls) * 1e6,
        "tier.decode_page_us": _time_calls(decode_page, decode_calls) * 1e6,
    }


# -- derived from spans and counters ----------------------------------------------------


def served_rows(mendel) -> float:
    """Sum over nodes of searches served x blocks held: the rows an
    exhaustive scan would have compared (take the difference of two calls)."""
    return float(sum(
        node.stats.queries_served * node.block_count
        for node in mendel.index.topology.nodes
    ))


def visit_share(reports: list, rows_if_exhaustive: float) -> float:
    """Distance evaluations spent on *reports* over the rows an exhaustive
    scan of the same trees would have compared (1.0 = no pruning)."""
    return ratio(sum(r.stats.node_evals for r in reports), rows_if_exhaustive)


def engine_metrics(
    tracer: Tracer,
    phase: str,
    reports: list,
    batch_ns_per_pair: float,
    speed: float,
) -> dict[str, float]:
    """The query-path layers (seq, vptree, cluster, core, align, sim) of one
    traced phase that answered *reports*; span times are divided by the
    phase's *speed* factor, like every other time perfbench reports."""
    queries = len(reports)
    if not queries:
        return {}

    def stat(name: str) -> float:
        return float(sum(getattr(r.stats, name) for r in reports))

    def total(name: str) -> tuple[int, float, float]:
        return tracer.total(name, phase, speed)

    root_busy = sum(root.busy for root in tracer.roots if root.phase == phase) / speed
    knn_calls, knn_busy, _ = total("vptree.knn")
    lk_calls, _, lk_self = total("cluster.local_knn")
    _, _, batch_self = total("core.run_batch")
    hash_calls, hash_busy, _ = total("vptree.hash_query")
    band_calls, band_busy, _ = total("align.banded_extend")
    evals = stat("node_evals")
    knn_us = ratio(knn_busy * 1e6, knn_calls)
    evals_per_search = ratio(evals, knn_calls)
    out = {
        "seq.pair_evals_per_query": evals / queries,
        "vptree.knn_us_per_search": knn_us,
        "vptree.searches_per_query": knn_calls / queries,
        "vptree.evals_per_search": evals_per_search,
        "vptree.traversal_us_per_search": (
            knn_us - evals_per_search * batch_ns_per_pair / 1e3
        ),
        "vptree.knn_share": ratio(knn_busy, root_busy),
        "vptree.prefix_hash_us": ratio(hash_busy * 1e6, hash_calls),
        "vptree.route_fanout": ratio(stat("subqueries_routed"), stat("windows")),
        "cluster.local_knn_self_us": ratio(lk_self * 1e6, lk_calls),
        "core.run_batch_self_ms": batch_self * 1e3 / queries,
        "core.windows_per_query": stat("windows") / queries,
        "core.candidates_per_query": stat("candidate_hits") / queries,
        "core.identity_pass_share": ratio(
            stat("identity_pass"), stat("candidate_hits")
        ),
        "core.cscore_pass_share": ratio(stat("cscore_pass"), stat("identity_pass")),
        "core.candidates_per_kevals": ratio(stat("candidate_hits") * 1e3, evals),
        "core.alignments_per_gapped": ratio(
            stat("alignments_reported"), stat("gapped_extensions")
        ),
        "align.banded_extend_ms": ratio(band_busy * 1e3, band_calls),
        "align.banded_calls_per_query": band_calls / queries,
        "align.banded_share": ratio(band_busy, root_busy),
        "sim.msgs_per_query": stat("messages") / queries,
        "sim.bytes_per_query": stat("bytes_sent") / queries,
    }
    for name in ("evaluate_candidate", "extend_anchor", "merge_anchors"):
        calls, busy, _ = total(f"core.{name}")
        out[f"core.{name}_us"] = ratio(busy * 1e6, calls)
    return out


def build_metrics(
    tracer: Tracer, mendel, speed: float, phase: str = "build"
) -> dict[str, float]:
    """Index construction: what ``setup_s`` is made of."""
    stored = float(sum(mendel.index.stats.per_node_blocks.values()))
    _, store_busy, store_self = tracer.total("cluster.store_blocks", phase, speed)
    place_calls, place_busy, _ = tracer.total("cluster.place_replicas", phase, speed)
    _, index_busy, _ = tracer.total("core.index_build", phase, speed)
    _, blockstore_busy, _ = tracer.total("core.blockstore", phase, speed)
    loads = list(mendel.index.stats.per_node_blocks.values())
    return {
        "vptree.build_us_per_block": ratio(store_self * 1e6, stored),
        "cluster.store_blocks_us_per_block": ratio(store_busy * 1e6, stored),
        "cluster.place_replicas_us": ratio(place_busy * 1e6, place_calls),
        "cluster.node_load_cv": ratio(
            statistics.pstdev(loads), statistics.fmean(loads)
        ) if loads else 0.0,
        "core.index_build_s": index_busy,
        "core.blockstore_blocks_per_s": ratio(mendel.block_count, blockstore_busy),
    }
