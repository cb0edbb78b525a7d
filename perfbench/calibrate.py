"""Machine-speed calibration: why perfbench's times are steady on a box that
is not.

The sandbox's CPU runs in two states, one 1.5 x slower than the other, and
flips between them for seconds to minutes at a time (a neighbour on the same
physical core, not scheduler steal: CPU time stretches with wall time).  A
median over a 20-second run cannot average that away, so every timed
operation is bracketed by a fixed calibration kernel — the distance kernel's
own idiom, a gather-and-sum inside a Python loop, about 1.4 ms — and its time
is divided by the *speed factor* ``mean(kernel samples) / REFERENCE_S``.
Reported times are therefore times **at reference speed**: what the operation
takes on a machine where the kernel takes ``REFERENCE_S``.  The kernel never
changes, so a change in ``repro`` moves the numbers exactly as it would
unnormalised, while a change in the machine does not.  Every normalised
metric has a ``raw.`` twin, as the clock read it, in ``results.json``;
``SPREAD.md`` sets the two side by side.

The factor is a CPU-speed factor.  Time an operation spends not computing (the
gateway's batch window, a few milliseconds a request) is divided by it all
the same; at a factor of 1.5 that misreports a 150 ms request by about 1 ms.

A single caller samples the kernel before and after each operation
(``factor(before, after)``).  A phase that keeps several threads busy — the
gateway's — has no quiet moment to sample in, and two samples around seven
seconds say nothing about a machine that changes speed every other second, so
``sampling()`` runs the kernel in a thread of its own ten times a second for
as long as the phase lasts, and ``factor_over`` averages the samples of the
phase, or of one request's lifetime.  The kernel
is timed with its thread's CPU clock, so waiting for the interpreter lock is
not counted; sharing caches with the engine's threads makes it about 1.1 x
slower than alone, steadily, so a gateway phase's reference speed is that
much further from a single caller's.  On twelve back-to-back closed phases of
one deployment, throughput spread 0.174 raw, 0.351 with one sample before and
after, 0.115 with samples at four quiet points and 0.039 with this sampler.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: the kernel's time between two queries on the 2-core box at full speed: the
#: unit of "reference speed"
REFERENCE_S = 1.4e-3
_ITERATIONS = 300
#: how often ``sampling()`` runs the kernel (3-5 ms of CPU each time)
SAMPLING_INTERVAL_S = 0.1
#: ``factor_over`` also counts the samples this long before and after its
#: interval: one 1.4 ms sample is too noisy to stand for a 170 ms request
SAMPLE_PAD_S = 0.2


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._flat = rng.random(400)
        self._query = rng.integers(0, 20, 8)
        # 480 elements: numpy releases the interpreter lock around loops of
        # more than 500, and in a sampler thread beside busy engine threads
        # every release is a hand-over between cores (10 x the kernel's CPU
        # time on this VM, and a third of the engine's throughput gone)
        self._rows = rng.integers(0, 20, (60, 8))
        #: every factor handed out, for ``obs.machine_slowdown``
        self.factors: list[float] = []

    def sample(self, after_idle: bool = False) -> float:
        """One kernel run; its thread-CPU seconds.  A thread that has just
        slept runs its first milliseconds slowly (cold caches, a clock still
        ramping), so *after_idle* runs the kernel once unmeasured first — and
        lets go of the interpreter lock in between, so that a sampler thread
        never keeps the open loop's scheduler waiting for two runs on end."""
        flat, query, rows = self._flat, self._query, self._rows
        if after_idle:
            self.sample()
            time.sleep(0)
        start = time.thread_time()
        total = 0.0
        for _ in range(_ITERATIONS):
            total += flat[query[None, :] * 20 + rows].sum(axis=1)[0]
        return time.thread_time() - start

    @contextmanager
    def sampling(self):
        """While the block runs, a sampler thread runs the kernel every
        ``SAMPLING_INTERVAL_S``; yields the list its ``(when, kernel
        seconds)`` marks land in, for ``factor_over``."""
        marks = [(perf_counter(), self.sample(after_idle=True))]
        stop = threading.Event()

        def sampler() -> None:
            while not stop.wait(SAMPLING_INTERVAL_S):
                marks.append((perf_counter(), self.sample(after_idle=True)))

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield marks
        finally:
            stop.set()
            thread.join()

    def factor(self, *samples: float) -> float:
        """Speed factor of an operation from the kernel samples taken around
        or during it; > 1 = a slow machine."""
        value = sum(samples) / (len(samples) * REFERENCE_S)
        self.factors.append(value)
        return value

    def factor_over(self, marks: list[tuple[float, float]],
                    start: float = float("-inf"), end: float = float("inf")) -> float:
        """Speed factor of the interval ``[start, end]`` of a sampled phase
        (of the whole phase by default): from the marks inside it or within
        ``SAMPLE_PAD_S`` of it, or failing those the nearest one.

        A throughput is linear in time, so one factor for its phase is right.
        A median latency is not: on a machine with two speeds it is the
        latency of whichever state most requests met, while the phase's mean
        factor moves with the share of time spent in each, so each request is
        normalised by the speed around itself before the median is taken
        (16 identical fixed phases: p50 spread 0.149 raw, 0.065 with one
        factor for the phase, 0.029 with one per request)."""
        near = [seconds for when, seconds in marks
                if start - SAMPLE_PAD_S <= when <= end + SAMPLE_PAD_S]
        if not near:
            near = [min(marks, key=lambda mark: abs(mark[0] - start))[1]]
        return self.factor(*near)

    def mean_factor(self) -> float:
        return sum(self.factors) / len(self.factors) if self.factors else 1.0
