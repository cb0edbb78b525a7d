"""The one wall-clock timing primitive shared across the repo.

Everything that measures *wall-clock* time — the benchmark harness's
:class:`Stopwatch`, the serving layer's latency accounting, and the span
timer of :mod:`repro.obs.trace` — reads the same monotonic clock defined
here (:data:`wall_clock`), so measurements from different layers are
directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

#: The process-wide monotonic wall clock every timer reads.
wall_clock = time.perf_counter


@dataclass
class Stopwatch:
    """Accumulating stopwatch.

    Usage::

        sw = Stopwatch()
        with sw:
            do_work()
        print(sw.elapsed)

    Multiple ``with`` blocks accumulate into :attr:`elapsed`; ``laps`` records
    each individual measurement.  ``on_lap`` (if set) is called with each lap
    duration — the hook benchmarks use to feed laps straight into an
    observability histogram (``on_lap=histogram.observe``), so traces,
    metrics, and benchmark tables all derive from one timing primitive.
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)
    on_lap: Callable[[float], None] | None = None
    _start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("stopwatch already running")
        self._start = wall_clock()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch not running")
        lap = wall_clock() - self._start
        self._start = None
        self.elapsed += lap
        self.laps.append(lap)
        if self.on_lap is not None:
            self.on_lap(lap)
        return lap

    def reset(self) -> None:
        self.elapsed = 0.0
        self.laps.clear()
        self._start = None

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def mean_lap(self) -> float:
        if not self.laps:
            raise ValueError("no laps recorded")
        return self.elapsed / len(self.laps)


def format_duration(seconds: float) -> str:
    """Render *seconds* in a human-friendly unit (ns/us/ms/s/min)."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"
