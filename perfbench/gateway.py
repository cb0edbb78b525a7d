"""``serve_gateway``: the in-process ``QueryService`` with its default
arguments — what ``repro serve`` gives users — on deployment D1.

Four phases share ``--seconds``:

* **fixed** — open loop at a fixed rate of distinct reads, latency timed
  from the moment each request was *due* (independent users do not wait for
  each other, and a stall must count against every request it delays); it is
  also the first step of the ladder;
* **ladder** — open loop at rising rates, one step each, stopping at the
  first step that fails: the highest rate that passes is ``max_rate_ok``;
* **closed** — two caller threads, each waiting for its reply, on distinct
  reads: engine-bound throughput under concurrency;
* **tcp_hit** — ``BackgroundServer`` plus two ``ServeClient`` connections
  replaying reads the fixed phase left in the result cache: no engine work,
  so only protocol, cache and asyncio costs show.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro import Mendel
from repro.obs.metrics import MetricsRegistry
from repro.serve.server import BackgroundServer
from repro.serve.service import QueryService

from perfbench import check, layers
from perfbench.calibrate import Calibrator
from perfbench.harness import P90_MIN_SAMPLES, Options, Result, fixed_pass, run_setup
from perfbench.report import LATE_LIMIT_MS
from perfbench.stats import median, percentile, ratio
from perfbench.trace import Tracer
from perfbench.workloads import Inputs, Read

#: a ladder step passes when every request succeeded, p90 from due time is
#: within the latency limit and the backlog empties within the drain limit
LATENCY_LIMIT_S = 1.0
DRAIN_LIMIT_S = 2.0
#: how long to wait for stragglers before calling them failed
STRAGGLER_TIMEOUT_S = 60.0
TCP_CONNECTIONS = 2
#: a traced run cuts its closed phase into this many rounds of three slices
CLOSED_CYCLES = 2
CACHE_HIT_CALLS = 2000


@dataclass
class Request:
    read: Read
    due: float
    sent: float = 0.0
    submitted: float = 0.0
    done: float | None = None
    future: object = None
    #: speed factor around due..done (1: not normalised, as on the ladder)
    speed: float = 1.0

    def mark_done(self, _future) -> None:
        self.done = perf_counter()

    @property
    def failed(self) -> bool:
        return self.done is not None and self.future.exception() is not None

    @property
    def latency(self) -> float:
        """Seconds from due to done, as the clock read them."""
        return self.done - self.due


class EngineCalls:
    """Stands where ``mendel.query_many`` stood (the runner the service looks
    up at construction) and notes when each batch ran, so request latency
    tiles into queue wait + engine + post."""

    def __init__(self, query_many, tracer: Tracer) -> None:
        self._query_many = query_many
        self._tracer = tracer
        #: record id -> (engine start, engine end, records in the batch)
        self.by_record: dict[str, tuple[float, float, int]] = {}

    def __call__(self, records, params=None, trace_contexts=None):
        start = perf_counter()
        with self._tracer.span("serve.engine", qid=records[0].seq_id):
            reports = self._query_many(records, params, trace_contexts=trace_contexts)
        call = (start, perf_counter(), len(records))
        for record in records:
            self.by_record[record.seq_id] = call
        return reports


def open_loop(service, params, reads, due, stop_when_late: bool = False):
    """Submit ``reads[i]`` at ``origin + due[i]`` whatever the service is
    doing; returns the requests, the highest backlog seen while sending, and
    whether the step was abandoned (more than a tenth already late or failed)."""
    requests: list[Request] = []
    backlog_max = 0
    abandoned = False
    origin = perf_counter()
    for read, offset in zip(reads, due):
        request = Request(read=read, due=origin + offset)
        delay = request.due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = perf_counter()
        if stop_when_late:
            bad = sum(
                1 for r in requests
                if r.failed or (r.done if r.done is not None else now) - r.due
                > LATENCY_LIMIT_S
            )
            if bad > len(due) / 10:
                abandoned = True
                break
        request.sent = perf_counter()
        request.future = service.submit(read.record, params)
        request.submitted = perf_counter()
        request.future.add_done_callback(request.mark_done)
        requests.append(request)
        backlog_max = max(backlog_max, sum(1 for r in requests if r.done is None))
    return requests, backlog_max, abandoned


def step_passed(requests: list[Request], planned: int, outstanding: int,
                abandoned: bool) -> bool:
    """A step passes when every planned request succeeded, p90 from due time
    is within the latency limit and the backlog emptied within the drain
    limit.  The limits are a user's, so latencies stay as the clock read
    them: the ladder is the one part of perfbench not at reference speed."""
    done = [r for r in requests if r.done is not None and not r.failed]
    return (
        not abandoned
        and outstanding == 0
        and len(done) == planned
        and percentile([r.latency for r in done], 90) <= LATENCY_LIMIT_S
    )


def drain(requests: list[Request], limit: float) -> int:
    """Wait up to *limit* seconds for the backlog to empty; returns what was
    still outstanding then, after waiting the stragglers out."""
    deadline = perf_counter() + limit
    for request in requests:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            break
        try:
            request.future.exception(timeout=remaining)
        except TimeoutError:
            break
    outstanding = sum(1 for r in requests if r.done is None)
    for request in requests:
        try:
            request.future.exception(timeout=STRAGGLER_TIMEOUT_S)
        except TimeoutError:
            pass
    # done-callbacks run just after waiters wake
    for request in requests:
        while request.done is None and request.future.done():
            time.sleep(0)
    return outstanding


def record_requests(result: Result, phase: str, requests: list[Request],
                    count_failures: bool) -> None:
    for request in requests:
        ok = request.done is not None and not request.failed
        result.samples.append({
            "phase": phase, "class": request.read.cls,
            "id": request.read.record.seq_id,
            "due": request.due - result.origin,
            "start": request.sent - result.origin,
            "end": (request.done or perf_counter()) - result.origin,
            "speed": request.speed, "ok": ok,
        })
        if count_failures:
            result.tally.expect(ok, f"{phase} {request.read.record.seq_id}: "
                                    "request failed or never completed")


def closed_loop(service, params, reads: list[Read], callers: int, seconds: float,
                calibrator: Calibrator):
    """*callers* threads, each sending its next distinct read only after the
    previous reply, for *seconds*; returns ``(completed, wall seconds, CPU
    seconds, speed factor, failures)``."""
    completed = [0] * callers
    failures: list[str] = []
    origin = perf_counter()
    cpu_origin = time.process_time()
    deadline = origin + seconds

    def caller(index: int) -> None:
        for read in reads[index::callers]:
            if perf_counter() >= deadline:
                return
            try:
                service.query(read.record, params)
            except Exception as exc:  # a failed request is a counted failure
                failures.append(f"{read.record.seq_id}: {type(exc).__name__}: {exc}")
                continue
            completed[index] += 1

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
    with calibrator.sampling() as marks:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - origin
        cpu = time.process_time() - cpu_origin
    return sum(completed), wall, cpu, calibrator.factor_over(marks), failures


def tcp_hit(service, params, reads: list[Read], references: dict, seconds: float):
    """Cached reads replayed over TCP by ``TCP_CONNECTIONS`` connections of a
    client process (:mod:`perfbench.tcp_client`); returns ``(replies, wall,
    bad)`` where *bad* counts replies that were not ok, not cached, or not
    the cached answer."""
    import repro

    job = {
        "seconds": seconds,
        "connections": TCP_CONNECTIONS,
        "params": dataclasses.asdict(params),
        "reads": [
            {"id": read.record.seq_id, "text": read.record.text,
             "signature": references[read.record.seq_id]}
            for read in reads
        ],
    }
    paths = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parents[1])]
    with BackgroundServer(service) as server:
        job.update(host=server.host, port=server.port)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("tcp_client.py"))],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=seconds + STRAGGLER_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        )
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1, seconds, 1
    outcome = json.loads(done.stdout.splitlines()[-1])
    for reason in outcome["bad"]:
        print(f"perfbench: tcp_hit {reason}", file=sys.stderr)
    return outcome["replies"], outcome["wall"], outcome["bad_count"]


@dataclass
class Bench:
    """What the phases of one run share."""

    result: Result
    inputs: Inputs
    mendel: Mendel
    service: QueryService
    #: mean speed factor of the fixed phase's requests (set by it)
    fixed_speed: float = 1.0

    @property
    def metrics(self) -> dict[str, float]:
        return self.result.metrics

    @property
    def tracer(self) -> Tracer | None:
        return self.result.tracer

    def enter(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase


def fixed_phase(bench: Bench) -> tuple[list[Request], float, bool]:
    """The open loop at the fixed rate; returns the answered requests, the
    rows an exhaustive scan would have compared, and whether the phase passed
    as a ladder step."""
    bench.enter("fixed")
    inputs, result, metrics = bench.inputs, bench.result, bench.metrics
    calibrator = result.calibrator
    due = inputs.plan["fixed_due"]
    rows_before = layers.served_rows(bench.mendel)
    with calibrator.sampling() as marks:
        fixed, _, _ = open_loop(bench.service, inputs.params, inputs.pools["fixed"], due)
        outstanding = drain(fixed, DRAIN_LIMIT_S)
    rows = layers.served_rows(bench.mendel) - rows_before
    answered = [r for r in fixed if r.done is not None and not r.failed]
    for request in answered:
        request.speed = calibrator.factor_over(marks, request.due, request.done)
    bench.fixed_speed = ratio(sum(r.speed for r in answered), len(answered)) or 1.0
    record_requests(result, "fixed", fixed, count_failures=True)
    for prefix, latencies_ms in (
        ("", [1e3 * r.latency / r.speed for r in answered]),
        ("raw.", [1e3 * r.latency for r in answered]),
    ):
        metrics[f"{prefix}query_p50_ms"] = median(latencies_ms)
        if len(answered) >= P90_MIN_SAMPLES:
            metrics[f"{prefix}query_p90_ms"] = percentile(latencies_ms, 90)
    metrics["query_samples"] = float(len(answered))
    late_ms = 1e3 * max(r.sent - r.due for r in fixed)
    metrics["serve.generator_late_ms_max"] = late_ms
    if late_ms > LATE_LIMIT_MS:
        print(f"perfbench: fixed phase sent a request {late_ms:.1f} ms late (limit "
              f"{LATE_LIMIT_MS:g} ms): compare will call its metrics unresolved",
              file=sys.stderr)
    metrics["serve.submit_us"] = 1e6 * median([r.submitted - r.sent for r in fixed])
    return answered, rows, step_passed(fixed, len(due), outstanding, False)


def ladder_phase(bench: Bench, fixed_passed: bool) -> None:
    """Rising open-loop rates above the fixed one, one step each, until the
    first step fails."""
    bench.enter("ladder")
    inputs = bench.inputs
    # The fixed phase is the ladder's first step and its rate, the issue's
    # 2 req/s, the floor: nothing above it is tried once it has failed.
    max_rate_ok = inputs.plan["fixed_rate"]
    backlog_at_failure = 0
    ladder_reads = iter(inputs.pools["ladder"])
    steps = zip(inputs.plan["ladder_rates"], inputs.plan["ladder_due"])
    for rate, due in steps if fixed_passed else ():
        reads = [next(ladder_reads) for _ in due]
        step, backlog_max, abandoned = open_loop(
            bench.service, inputs.params, reads, due, stop_when_late=True
        )
        outstanding = drain(step, DRAIN_LIMIT_S)
        record_requests(bench.result, f"ladder-{rate}", step, count_failures=False)
        if not step_passed(step, len(due), outstanding, abandoned):
            backlog_at_failure = backlog_max
            break
        max_rate_ok = float(rate)
    bench.metrics["max_rate_ok"] = max_rate_ok
    bench.metrics["serve.backlog_max"] = float(backlog_at_failure)


def closed_phase(bench: Bench) -> None:
    """The closed phase; traced, it is cut into slices that also yield the
    tracing overhead and the concurrency speed-up."""
    inputs, result, tracer = bench.inputs, bench.result, bench.tracer
    callers = inputs.plan["closed_callers"]
    seconds = inputs.plan["phase_seconds"]["closed"]
    reads = inputs.pools["closed"]
    calibrator = result.calibrator
    bench.enter("closed")
    if tracer is None:
        completed, wall, cpu, speed, failures = closed_loop(
            bench.service, inputs.params, reads, callers, seconds, calibrator
        )
    else:
        # Slices in turn: both callers untraced (the reference), both callers
        # traced, one caller traced (the concurrency baseline).
        slices = {"untraced": [], "traced": [], "single": []}
        count = 3 * CLOSED_CYCLES
        per_slice = len(reads) // count
        for index in range(count):
            name = list(slices)[index % 3]
            if name == "untraced":
                tracer.uninstall()
            else:
                tracer.install()
            slices[name].append(closed_loop(
                bench.service, inputs.params,
                reads[index * per_slice:(index + 1) * per_slice],
                1 if name == "single" else callers, seconds / count, calibrator,
            ))
        totals = {
            name: [sum(run[slot] for run in runs) for slot in range(3)]
            for name, runs in slices.items()
        }
        # queries per second at reference speed, slice by slice
        rate = {
            name: ratio(totals[name][0], sum(run[1] / run[3] for run in runs))
            for name, runs in slices.items()
        }
        bench.metrics["serve.concurrency_speedup"] = ratio(
            rate["traced"], rate["single"]
        )
        bench.metrics["obs.bench_trace_overhead_share"] = 1.0 - ratio(
            rate["traced"], rate["untraced"]
        )
        failures = [f for runs in slices.values() for run in runs for f in run[4]]
        result.tally.ok(totals["traced"][0] + totals["single"][0])
        completed, wall, cpu = totals["untraced"]
        speed = wall * ratio(rate["untraced"], completed)
    result.tally.ok(completed)
    for failure in failures:
        result.tally.fail(f"closed {failure}")
    result.set_timing("queries_per_s", ratio(completed, wall), speed)
    result.set_timing("cpu_ms_per_query", ratio(1e3 * cpu, completed), speed)


def tcp_hit_phase(bench: Bench, answered: list[Request]) -> None:
    """Replay what the fixed phase left in the cache, over TCP and (traced)
    in process."""
    bench.enter("tcp_hit")
    inputs, result, metrics = bench.inputs, bench.result, bench.metrics
    cached = [r.read for r in answered]
    references = {
        r.read.record.seq_id: check.signature(r.future.result().report)
        for r in answered
    }
    with result.calibrator.sampling() as marks:
        replies, wall, bad = tcp_hit(
            bench.service, inputs.params, cached, references,
            inputs.plan["phase_seconds"]["tcp_hit"],
        )
    speed = result.calibrator.factor_over(marks)
    result.tally.ok(replies - bad)
    if bad:
        result.tally.fail(f"tcp_hit: {bad} bad replies", count=bad)
    result.set_timing("tcp_hit_ops_per_s", ratio(replies, wall), speed)
    if bench.tracer is not None:
        def cache_hits() -> None:
            for i in range(CACHE_HIT_CALLS):
                bench.service.submit(
                    cached[i % len(cached)].record, inputs.params
                ).result()

        hit_us = 1e6 * result.timed(cache_hits)[1] / CACHE_HIT_CALLS
        metrics["serve.cache_hit_us"] = hit_us
        metrics["serve.tcp_roundtrip_us"] = (
            ratio(1e6 * TCP_CONNECTIONS, metrics["tcp_hit_ops_per_s"]) - hit_us
        )
    metrics["serve.shed_count"] = float(bench.service.snapshot()["shed"])


def check_answers(bench: Bench, answered: list[Request]) -> None:
    """Each fixed-phase reply against a direct, one-at-a-time query of the
    same read; those direct queries also give ``sim_turnaround_ms``."""
    inputs, result = bench.inputs, bench.result
    direct = fixed_pass(
        result, lambda record: bench.mendel.query(record, inputs.params),
        [r.read for r in answered],
    )
    for request, reference in zip(answered, direct.reports):
        check.check_same_answer(
            result.tally, f"fixed {request.read.record.seq_id}",
            check.signature(request.future.result().report),
            check.signature(reference),
        )
    bench.metrics.update(direct.repeatable_metrics(
        len(direct.reads), check.source_pairs_found
    ))


def layer_metrics(bench: Bench, answered: list[Request], hook: EngineCalls,
                  rows: float, setup_speed: float) -> None:
    """What the traced run adds: the latency tiling, the engine's layers in
    the fixed phase, and the stand-alone kernels."""
    metrics, tracer, inputs = bench.metrics, bench.tracer, bench.inputs
    # queue wait (due -> engine start), engine, post (engine end -> done)
    fixed_speed = bench.fixed_speed
    tiles = [
        (r, (call[0] - r.due) / r.speed, (call[1] - call[0]) / r.speed,
         (r.done - call[1]) / r.speed)
        for r in answered
        if (call := hook.by_record.get(r.read.record.seq_id)) is not None
    ]
    waits_ms = [1e3 * wait for _, wait, _, _ in tiles]
    metrics["serve.queue_wait_p50_ms"] = median(waits_ms)
    metrics["serve.queue_wait_p90_ms"] = percentile(waits_ms, 90)
    metrics["serve.post_ms"] = 1e3 * median([post for _, _, _, post in tiles])
    batches = {hook.by_record[r.read.record.seq_id] for r, _, _, _ in tiles}
    metrics["serve.engine_ms_per_batch"] = 1e3 * ratio(
        sum(end - start for start, end, _ in batches), len(batches) * fixed_speed
    )
    metrics["serve.mean_batch"] = ratio(
        sum(size for _, _, size in batches), len(batches)
    )
    # worst relative gap between a request's latency and its three tiles
    metrics["serve.tiling_gap_share"] = max(
        (abs((wait + engine + post) * r.speed - r.latency) / r.latency
         for r, wait, engine, post in tiles),
        default=1.0,
    )
    metrics.update(layers.build_metrics(tracer, bench.mendel, setup_speed))
    kernels = layers.distance_kernels(
        lambda: bench.mendel.query(inputs.pools["warmup"][0].record, inputs.params)
    )
    metrics.update(kernels)
    served_reports = [r.future.result().report for r in answered]
    metrics.update(layers.engine_metrics(
        tracer, "fixed", served_reports,
        kernels.get("seq.matrix_batch_ns_per_pair", 0.0), fixed_speed,
    ))
    metrics["vptree.visit_share"] = layers.visit_share(served_reports, rows)
    metrics["sim.events_per_s"] = layers.sim_events_per_s()
    metrics.update(layers.wire_costs(served_reports[0]))
    metrics["serve.tcp_hit_engine_spans"] = float(
        sum(1 for _ in tracer.spans(phase="tcp_hit"))
    )


def run(options: Options) -> Result:
    result = Result.of(options)
    tracer = result.tracer
    hooks: list[EngineCalls] = []

    def setup():
        inputs = options.make_inputs()
        mendel = Mendel.build(inputs.database, inputs.config)
        if tracer is not None:
            hooks.append(EngineCalls(mendel.query_many, tracer))
            mendel.query_many = hooks[-1]
        service = QueryService(mendel, registry=MetricsRegistry())
        for read in inputs.pools["warmup"]:
            service.query(read.record, inputs.params)
        return inputs, mendel, service

    (inputs, mendel, service), setup_speed = run_setup(
        result, setup, teardown=lambda product: product[2].close()
    )
    result.inputs = inputs
    bench = Bench(result, inputs, mendel, service)
    if tracer is not None:
        tracer.install()
    try:
        answered, rows, fixed_passed = fixed_phase(bench)
        ladder_phase(bench, fixed_passed)
        closed_phase(bench)
        tcp_hit_phase(bench, answered)
    finally:
        service.close()
        if tracer is not None:
            tracer.uninstall()
    check_answers(bench, answered)
    if tracer is not None:
        layer_metrics(bench, answered, hooks[-1], rows, setup_speed)
    return result.finish()
