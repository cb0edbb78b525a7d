"""What the four workloads share: the run's options and result, repeated
set-up, and the closed single-caller query sweep."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import check
from perfbench.calibrate import Calibrator
from perfbench.stats import median, peak_rss_mb, percentile, ratio
from perfbench.trace import Tracer
from perfbench.workloads import Inputs, Read, load_inputs, make_inputs

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: a p90 is reported only from this many samples (ten of them beyond it)
P90_MIN_SAMPLES = 100


@dataclass
class Options:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: directory for inputs, samples and the trace (None: write nothing)
    out: Path | None = None
    #: replay inputs written by an earlier run instead of generating them
    inputs: Path | None = None

    def make_inputs(self) -> Inputs:
        if self.inputs is not None:
            return load_inputs(self.inputs)
        return make_inputs(self.workload, self.seed, self.seconds)


@dataclass
class Result:
    """What one run measured; ``Result.of(options)`` starts one."""

    #: every metric this run measured, by name
    metrics: dict[str, float] = field(default_factory=dict)
    #: one row per timed operation (``samples.csv``)
    samples: list[dict] = field(default_factory=list)
    tally: check.Tally = field(default_factory=check.Tally)
    tracer: Tracer | None = None
    inputs: Inputs | None = None
    #: sample times are seconds since this instant
    origin: float = field(default_factory=perf_counter)
    calibrator: Calibrator = field(default_factory=Calibrator)

    @classmethod
    def of(cls, options: Options) -> "Result":
        return cls(tracer=Tracer() if options.trace else None)

    def timed(self, operation):
        """``operation()`` bracketed by calibration: returns ``(value,
        seconds at reference speed, start, end, speed factor)``."""
        before = self.calibrator.sample()
        start = perf_counter()
        value = operation()
        end = perf_counter()
        factor = self.calibrator.factor(before, self.calibrator.sample())
        return value, (end - start) / factor, start, end, factor

    def set_timing(self, name: str, raw: float, factor: float) -> None:
        """Record a time (``*_ms``, ``*_s``) or rate (``*_per_s``) at
        reference speed, with its ``raw.`` twin as the clock read it."""
        self.metrics[f"raw.{name}"] = raw
        self.metrics[name] = raw * factor if name.endswith("_per_s") else raw / factor

    def finish(self) -> "Result":
        """Add what every workload reports last."""
        self.metrics.update({
            "peak_rss_mb": peak_rss_mb(),
            "failed_share": self.tally.failed_share,
            "obs.machine_slowdown": self.calibrator.mean_factor(),
        })
        return self


def timing_metrics(latencies: list[float], cpu: float) -> dict[str, float]:
    """The query timings of one closed single-caller pass."""
    count = len(latencies)
    millis = [1e3 * seconds for seconds in latencies]
    out = {
        "query_p50_ms": median(millis),
        # completed queries / the caller's busy time (calibration excluded)
        "queries_per_s": ratio(count, sum(latencies)),
        "cpu_ms_per_query": ratio(1e3 * cpu, count),
    }
    if count >= P90_MIN_SAMPLES:
        out["query_p90_ms"] = percentile(millis, 90)
    return out


@dataclass
class Sweep:
    """One closed-loop pass: what ran and what it cost, in seconds at
    reference speed (see :mod:`perfbench.calibrate`) and as the clock read
    them."""

    reads: list[Read] = field(default_factory=list)
    reports: list = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    raw_cpu: float = 0.0

    @property
    def speed(self) -> float:
        """Mean speed factor of the pass (> 1: the machine was slow)."""
        return ratio(sum(self.raw_latencies), sum(self.latencies)) or 1.0

    def extend(self, other: "Sweep") -> None:
        self.reads += other.reads
        self.reports += other.reports
        self.latencies += other.latencies
        self.raw_latencies += other.raw_latencies
        self.cpu += other.cpu
        self.raw_cpu += other.raw_cpu

    def query_metrics(self) -> dict[str, float]:
        """``query_p50_ms``, ``queries_per_s``, ``cpu_ms_per_query`` and, from
        ``P90_MIN_SAMPLES`` samples, ``query_p90_ms`` — each with its ``raw.``
        twin — plus the sample count."""
        out = timing_metrics(self.latencies, self.cpu)
        raw = timing_metrics(self.raw_latencies, self.raw_cpu)
        out.update({f"raw.{name}": value for name, value in raw.items()})
        out["query_samples"] = float(len(self.latencies))
        return out

    def repeatable_metrics(self, count: int, found_in) -> dict[str, float]:
        """``sim_turnaround_ms`` and ``recall`` over the first *count* queries
        — a number every run completes — so that both repeat exactly for one
        seed however many queries the time box admitted.  *found_in* is the
        workload's recall rule (:mod:`perfbench.check`)."""
        reports = self.reports[:count]
        found = total = 0
        for read, report in zip(self.reads, reports):
            hit, of = found_in(read, report.subject_ids())
            found += hit
            total += of
        return {
            "sim_turnaround_ms": ratio(
                1e3 * sum(r.stats.turnaround for r in reports), len(reports)
            ),
            "recall": ratio(found, total),
        }


def run_setup(result: Result, setup, teardown=None):
    """Set the workload up and record ``setup_s``; returns ``(product, speed
    factor of the last set-up)``.

    Untraced, *setup()* runs ``SETUPS`` times and ``setup_s`` is the median:
    earlier products are torn down and dropped before the next set-up starts.
    Traced, it runs once under the wrappers, as a root span of phase
    ``build``."""
    tracer = result.tracer
    if tracer is not None:
        tracer.phase = "build"
        with tracer.installed(), tracer.span("setup"):
            product, _, start, end, speed = result.timed(setup)
        result.set_timing("setup_s", end - start, speed)
        return product, speed
    durations, raw = [], []
    product = None
    for _ in range(SETUPS):
        if product is not None and teardown is not None:
            teardown(product)
        product = None
        product, seconds, start, end, speed = result.timed(setup)
        durations.append(seconds)
        raw.append(end - start)
    result.metrics["setup_s"] = median(durations)
    result.metrics["raw.setup_s"] = median(raw)
    # The earlier set-ups are this benchmark's garbage, not the program's: a
    # full collection of it mid-phase stalls every thread for 30 ms.
    gc.collect()
    return product, speed


def sweep(
    result: Result,
    query,
    reads: list[Read],
    seconds: float,
    phase: str,
    round_size: int = 1,
    tracer: Tracer | None = None,
    offset: int = 0,
) -> Sweep:
    """Closed loop, one caller: ``query(read.record)`` over *reads* from
    *offset*, cycling, in whole rounds of *round_size* until *seconds* have
    passed.  Each call is a timed sample bracketed by calibration; under
    *tracer* each is a root span."""
    out = Sweep()
    calibrator = result.calibrator
    position = offset
    deadline = perf_counter() + seconds
    before = calibrator.sample()
    while True:
        for _ in range(round_size):
            read = reads[position % len(reads)]
            position += 1
            cpu_start = time.process_time()
            start = perf_counter()
            if tracer is None:
                report = query(read.record)
            else:
                with tracer.span("query", qid=read.record.seq_id):
                    report = query(read.record)
            end = perf_counter()
            cpu = time.process_time() - cpu_start
            after = calibrator.sample()
            factor = calibrator.factor(before, after)
            before = after
            out.reads.append(read)
            out.reports.append(report)
            out.latencies.append((end - start) / factor)
            out.raw_latencies.append(end - start)
            out.cpu += cpu / factor
            out.raw_cpu += cpu
            result.samples.append({
                "phase": phase, "class": read.cls, "id": read.record.seq_id,
                "due": start - result.origin, "start": start - result.origin,
                "end": end - result.origin, "speed": factor, "ok": True,
            })
        if perf_counter() >= deadline:
            return out


def alternating(
    result: Result,
    query,
    reads: list[Read],
    seconds: float,
    round_size: int,
    tracer: Tracer,
    phase: str = "traced",
    plain_phase: str = "untraced",
    offset: int = 0,
) -> tuple[Sweep, Sweep]:
    """Rounds of *reads* alternately untraced and traced for *seconds*, so
    that drift in the machine's speed falls on both alike; returns
    ``(untraced, traced)``."""
    plain, traced = Sweep(), Sweep()
    position = offset
    tracer.phase = phase
    deadline = perf_counter() + seconds
    while True:
        plain.extend(sweep(result, query, reads, 0.0, plain_phase, round_size,
                           offset=position))
        position += round_size
        with tracer.installed():
            traced.extend(sweep(result, query, reads, 0.0, phase, round_size,
                                tracer=tracer, offset=position))
        position += round_size
        if perf_counter() >= deadline:
            return plain, traced


def fixed_pass(result: Result, query, reads: list[Read]) -> Sweep:
    """One pass over exactly *reads*, outside the timed budget (reference
    answers, cache warming, re-checks); nothing is added to the samples."""
    scratch = Result(calibrator=result.calibrator)
    return sweep(scratch, query, reads, 0.0, "", round_size=len(reads))
