"""``storage_lifecycle``: closed loop, one caller, on deployment D2 — writes
beside reads, and a working set larger than the tier cache beside one that
fits.

build from the first sequences -> ``insert`` the rest in batches ->
``flush_durable`` -> all-RAM sweep (the reference answers) -> ``spill`` with a
cache of a tenth of the raw code bytes -> **cold** sweep -> re-spill with a
cache of twice the raw bytes, one untimed pass, **fit** sweep -> crash and
``recover_node`` each node in turn -> ``scrub`` -> ``unspill``.  The two sweeps
are time-boxed shares of ``--seconds``; the other phases have fixed counts.
"""

from __future__ import annotations

import numpy as np

import repro.tier.store as tier_store
from repro import Mendel
from repro.seq.records import SequenceSet
from repro.tier.store import TierConfig

from perfbench import check, layers
from perfbench.harness import (
    Options,
    Result,
    Sweep,
    alternating,
    fixed_pass,
    run_setup,
    sweep,
)
from perfbench.stats import median, ratio
from perfbench.workloads import Inputs

#: pages kept from the spill for the stand-alone codec timing
CAPTURED_PAGES = 64


def _subset(database: SequenceSet, start: int, stop: int) -> SequenceSet:
    return SequenceSet(alphabet=database.alphabet,
                       records=list(database)[start:stop])


def _cache_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}


def _hit_ratio(moved: dict) -> float:
    return ratio(moved["hits"], moved["hits"] + moved["misses"])


class Lifecycle:
    """One deployment taken through the lifecycle, a method per phase."""

    def __init__(self, result: Result, inputs: Inputs, mendel: Mendel) -> None:
        self.result = result
        self.metrics = result.metrics
        self.tracer = result.tracer
        self.inputs = inputs
        self.plan = inputs.plan
        self.mendel = mendel
        self.pool = inputs.pools["sweep"]
        self.recheck = self.pool[: self.plan["recheck_reads"]]
        #: phase -> speed factors of its steps, to bring its spans to reference speed
        self.speeds: dict[str, list[float]] = {}
        #: read id -> signature of the all-RAM answer
        self.reference: dict[str, tuple] = {}
        self.raw_bytes = 0
        self.ram_p50_s = 0.0
        self.tier_config = TierConfig(
            page_rows=self.plan["page_rows"],
            alphabet_size=inputs.database.alphabet.size,
        )

    # -- helpers -------------------------------------------------------------------

    def query(self, record):
        return self.mendel.query(record, self.inputs.params)

    @property
    def nodes(self):
        return self.mendel.index.topology.nodes

    def timed(self, phase: str, operation):
        """Run one lifecycle step as a timed sample (a root span when traced);
        returns its value and its seconds at reference speed."""
        if self.tracer is None:
            value, seconds, start, end, speed = self.result.timed(operation)
        else:
            self.tracer.phase = phase
            with self.tracer.span(phase):
                value, seconds, start, end, speed = self.result.timed(operation)
        self.speeds.setdefault(phase, []).append(speed)
        origin = self.result.origin
        self.result.samples.append({
            "phase": phase, "class": "", "id": phase, "due": start - origin,
            "start": start - origin, "end": end - origin, "speed": speed, "ok": True,
        })
        self.result.tally.ok()
        return value, seconds

    def phase_total(self, name: str, phase: str) -> tuple[int, float, float]:
        """A span name's totals within *phase*, at reference speed."""
        speeds = self.speeds[phase]
        return self.tracer.total(name, phase, sum(speeds) / len(speeds))

    def check_sweep(self, what: str, done: Sweep) -> None:
        for read, report in zip(done.reads, done.reports):
            check.check_same_answer(
                self.result.tally, f"{what} {read.record.seq_id}",
                check.signature(report), self.reference[read.record.seq_id],
            )

    def recheck_answers(self, what: str) -> None:
        self.check_sweep(what, fixed_pass(self.result, self.query, self.recheck))

    # -- phases --------------------------------------------------------------------

    def insert(self) -> None:
        plan, mendel = self.plan, self.mendel

        def adapter_evals() -> int:
            return sum(node.tree.adapter.pair_evaluations for node in self.nodes)

        blocks_before, evals_before = mendel.block_count, adapter_evals()
        seconds = 0.0
        for batch in range(plan["batches"]):
            start = plan["initial_sequences"] + batch * plan["batch_size"]
            new = _subset(self.inputs.database, start, start + plan["batch_size"])
            seconds += self.timed("insert", lambda: mendel.insert(new))[1]
        added = mendel.block_count - blocks_before
        stored = added * self.inputs.config.replication
        self.metrics["ingest_blocks_per_s"] = ratio(added, seconds)
        self.metrics["vptree.insert_evals_per_block"] = ratio(
            adapter_evals() - evals_before, stored
        )
        if self.tracer is not None:
            _, _, store_self = self.phase_total("cluster.store_blocks", "insert")
            wal_calls, wal_busy, _ = self.phase_total("store.wal_append", "insert")
            self.metrics["vptree.insert_us_per_block"] = ratio(store_self * 1e6, stored)
            self.metrics["store.wal_append_us_per_block"] = ratio(
                wal_busy * 1e6, wal_calls
            )

    def flush(self) -> None:
        # Code bytes resident before any spill, replicas included.
        self.raw_bytes = sum(
            int(np.asarray(node.tree.points).nbytes) for node in self.nodes if node.alive
        )
        wal_bytes = sum(
            status["disk_bytes"]
            for status in self.mendel.durability()["nodes"].values()
        )
        self.metrics["store.wal_bytes_per_user_byte"] = ratio(wal_bytes, self.raw_bytes)
        acked, seconds = self.timed("flush", self.mendel.flush_durable)
        self.metrics["store.checkpoint_ms"] = 1e3 * seconds
        durability = self.mendel.durability()
        self.result.tally.expect(
            acked == len(self.nodes)
            and not durability["degraded_nodes"]
            and not any(s["unacked_writes"] for s in durability["nodes"].values()),
            "flush: unacknowledged writes remain after flush_durable",
        )

    def ram_sweep(self) -> None:
        """The all-RAM answers every later sweep must reproduce."""
        ram = fixed_pass(self.result, self.query, self.pool)
        for read, report in zip(ram.reads, ram.reports):
            check.check_direct_report(self.result.tally, read, report)
            self.reference[read.record.seq_id] = check.signature(report)
        self.ram_p50_s = median(ram.latencies)

    def cold(self) -> tuple[Sweep, Sweep | None, list[tuple]]:
        """Spill behind a cache of a tenth of the corpus and sweep; returns the
        untraced sweep, the traced one (traced runs) and the captured pages."""
        metrics, mendel, tracer = self.metrics, self.mendel, self.tracer
        cache_bytes = max(1, int(self.plan["cold_cache_fraction"] * self.raw_bytes))
        with layers.capture_calls(tier_store, "encode_page", CAPTURED_PAGES) as pages:
            cache, metrics["tier.spill_s"] = self.timed(
                "spill", lambda: mendel.spill(cache_bytes, self.tier_config)
            )
        tier = mendel.tier_report()
        metrics["disk_bytes_per_user_byte"] = ratio(tier["bytes_on_disk"], self.raw_bytes)
        metrics["tier.compression_ratio"] = tier["compression_ratio"]

        def cold_bytes() -> int:
            return sum(n.tier.total_bytes for n in self.nodes if n.tier is not None)

        cache_before, bytes_before = cache.stats(), cold_bytes()
        rows_before = layers.served_rows(mendel)
        seconds = self.plan["phase_seconds"]["cold"]
        if tracer is None:
            plain = sweep(self.result, self.query, self.pool, seconds, "cold")
            traced = None
        else:
            tracer.uninstall()
            plain, traced = alternating(
                self.result, self.query, self.pool, seconds, 1, tracer,
                phase="cold", plain_phase="cold-untraced",
            )
            tracer.install()
        both = Sweep()
        both.extend(plain)
        if traced is not None:
            both.extend(traced)
        self.check_sweep("cold", both)
        moved = _cache_delta(cache.stats(), cache_before)
        queries = len(both.reads)
        metrics.update(plain.query_metrics())
        # one cycle of the pool: the cold cache's state repeats with it
        metrics.update(plain.repeatable_metrics(
            len(self.pool), check.source_pairs_found
        ))
        metrics.update({
            "tier.cache_hit_ratio": _hit_ratio(moved),
            "tier.pages_read_per_query": ratio(moved["misses"], queries),
            "tier.evictions_per_query": ratio(moved["evictions"], queries),
            "tier.cold_bytes_per_query": ratio(cold_bytes() - bytes_before, queries),
            "tier.cold_over_ram_ratio": ratio(
                metrics["query_p50_ms"], 1e3 * self.ram_p50_s
            ),
            "vptree.visit_share": layers.visit_share(
                both.reports, layers.served_rows(mendel) - rows_before
            ),
        })
        return plain, traced, pages

    def fit(self) -> None:
        """Re-spill behind a cache of twice the corpus, warm it, sweep."""
        cache_bytes = int(self.plan["fit_cache_fraction"] * self.raw_bytes)
        cache, _ = self.timed(
            "respill", lambda: self.mendel.spill(cache_bytes, self.tier_config)
        )
        fixed_pass(self.result, self.query, self.pool)
        cache_before = cache.stats()
        done = sweep(self.result, self.query, self.pool,
                     self.plan["phase_seconds"]["fit"], "fit")
        self.check_sweep("fit", done)
        self.metrics["fit_query_p50_ms"] = 1e3 * median(done.latencies)
        self.metrics["tier.fit_cache_hit_ratio"] = _hit_ratio(
            _cache_delta(cache.stats(), cache_before)
        )

    def recover(self) -> None:
        """Crash and recover each node in turn."""
        seconds = []
        for node in list(self.nodes):
            self.mendel.fail_node(node.node_id)
            seconds.append(self.timed(
                "recover", lambda: self.mendel.recover_node(node.node_id)
            )[1])
        self.metrics["recover_p50_ms"] = 1e3 * median(seconds)
        if self.tracer is not None:
            calls, busy, _ = self.phase_total("store.node_recover", "recover")
            self.metrics["store.replay_ms_per_node"] = ratio(busy * 1e3, calls)
        self.recheck_answers("post-recover")

    def scrub_and_unspill(self) -> None:
        _, self.metrics["store.scrub_s"] = self.timed("scrub", self.mendel.scrub)
        _, self.metrics["tier.unspill_s"] = self.timed("unspill", self.mendel.unspill)
        self.recheck_answers("post-unspill")


def run(options: Options) -> Result:
    result = Result.of(options)
    tracer, metrics = result.tracer, result.metrics

    def setup():
        inputs = options.make_inputs()
        initial = _subset(inputs.database, 0, inputs.plan["initial_sequences"])
        mendel = Mendel.build(initial, inputs.config)
        for read in inputs.pools["warmup"]:
            mendel.query(read.record, inputs.params)
        return inputs, mendel

    (inputs, mendel), setup_speed = run_setup(result, setup)
    result.inputs = inputs
    lifecycle = Lifecycle(result, inputs, mendel)
    if tracer is not None:
        metrics.update(layers.build_metrics(tracer, mendel, setup_speed))
        tracer.install()
    try:
        lifecycle.insert()
        lifecycle.flush()
        lifecycle.ram_sweep()
        plain, traced, pages = lifecycle.cold()
        lifecycle.fit()
        lifecycle.recover()
        lifecycle.scrub_and_unspill()
    finally:
        if tracer is not None:
            tracer.uninstall()

    if traced is not None:
        metrics.update(layers.page_codec_costs(pages))
        kernels = layers.distance_kernels(
            lambda: fixed_pass(result, lifecycle.query, lifecycle.recheck[:1])
        )
        metrics.update(kernels)
        metrics.update(layers.engine_metrics(
            tracer, "cold", traced.reports,
            kernels.get("seq.matrix_batch_ns_per_pair", 0.0), traced.speed,
        ))
        metrics["sim.events_per_s"] = layers.sim_events_per_s()
        metrics["obs.bench_trace_overhead_share"] = 1.0 - ratio(
            traced.query_metrics()["queries_per_s"], metrics["queries_per_s"],
        )
    return result.finish()
