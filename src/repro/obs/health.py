"""Rolling-window SLI aggregation and the continuous health monitor.

The observability layers so far are point-in-time: a span tree explains one
query, a counter accumulates forever.  Operating a cluster needs the middle
timescale — *"over the last few windows of traffic, what fraction of
answers were complete, and how slow was the p99?"* — which is what a
service-level indicator (SLI) is.  This module provides:

* :class:`RollingWindow` — a bounded sliding time window of ``(time,
  value, good)`` observations with exact percentiles over the window;
* :class:`SLIRecorder` — named SLIs, each folded into several window
  widths at once (the classic 1s/10s/60s triple by default; chaos runs
  auto-scale the widths to the scripted failure horizon);
* :class:`HealthMonitor` — the composition: one recorder, one
  :class:`~repro.obs.slo.SLOEngine`, one
  :class:`~repro.obs.events.EventLog`, ticked either by a simulated
  process (chaos runs) or lazily on access (the wall-clock gateway), with
  a Prometheus install hook exporting SLI windows and alert states.

Windows operate on whatever clock the caller feeds ``now`` from — the
simulated cluster clock inside a run, the process monotonic clock at the
gateway — which is why nothing here reads a clock itself.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.obs.events import EventLog, default_event_log
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    FamilySnapshot,
    MetricsRegistry,
    Sample,
    _format_value,
)
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.obs.timer import format_duration


@dataclass(frozen=True)
class WindowStats:
    """One window's aggregate at one instant."""

    width: float
    count: int
    good: int
    bad: int
    mean: float
    max: float
    p50: float
    p90: float
    p99: float

    @property
    def good_ratio(self) -> float:
        return self.good / self.count if self.count else 1.0

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "count": self.count,
            "good": self.good,
            "bad": self.bad,
            "good_ratio": round(self.good_ratio, 6),
            "mean": self.mean,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def _percentile(ordered: Sequence[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class RollingWindow:
    """A sliding time window of observations.

    Observations older than ``width`` (relative to the ``now`` each reader
    supplies) are pruned; ``max_samples`` additionally bounds memory under
    pathological rates.  Not internally locked — the owning
    :class:`SLIRecorder` serialises access.
    """

    __slots__ = ("width", "_samples", "last_bad_at")

    def __init__(self, width: float, max_samples: int = 4096) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        self.width = width
        self._samples: deque[tuple[float, float, bool]] = deque(
            maxlen=max_samples
        )
        self.last_bad_at: float | None = None

    def observe(self, now: float, value: float, good: bool = True) -> None:
        self._samples.append((float(now), float(value), bool(good)))
        if not good:
            self.last_bad_at = float(now)
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.width
        samples = self._samples
        while samples and samples[0][0] <= cutoff:
            samples.popleft()

    def stats(self, now: float) -> WindowStats:
        self._prune(now)
        values = sorted(value for _t, value, _g in self._samples)
        good = sum(1 for _t, _v, ok in self._samples if ok)
        count = len(self._samples)
        return WindowStats(
            width=self.width,
            count=count,
            good=good,
            bad=count - good,
            mean=(sum(values) / count) if count else 0.0,
            max=values[-1] if values else 0.0,
            p50=_percentile(values, 50),
            p90=_percentile(values, 90),
            p99=_percentile(values, 99),
        )

    def bad_fraction(self, now: float) -> float:
        self._prune(now)
        if not self._samples:
            return 0.0
        bad = sum(1 for _t, _v, ok in self._samples if not ok)
        return bad / len(self._samples)

    def exceed_fraction(self, now: float, threshold: float) -> float:
        """Fraction of windowed values strictly above *threshold*."""
        self._prune(now)
        if not self._samples:
            return 0.0
        over = sum(1 for _t, value, _g in self._samples if value > threshold)
        return over / len(self._samples)

    def count(self, now: float) -> int:
        self._prune(now)
        return len(self._samples)

    def values(self, now: float) -> list[float]:
        """The raw windowed values at *now*, observation order."""
        self._prune(now)
        return [value for _t, value, _g in self._samples]


class SLI:
    """One named indicator folded into every recorder window width."""

    def __init__(self, name: str, widths: Sequence[float]) -> None:
        self.name = name
        self.windows = {width: RollingWindow(width) for width in widths}
        #: trace ids of recent *bad* observations — what an alert carries
        #: so an investigation can jump straight to a span tree.
        self.bad_trace_ids: deque[str] = deque(maxlen=8)

    def observe(
        self, now: float, value: float, good: bool = True,
        trace_id: str | None = None,
    ) -> None:
        for window in self.windows.values():
            window.observe(now, value, good=good)
        if not good and trace_id:
            self.bad_trace_ids.append(trace_id)

    def window(self, width: float) -> RollingWindow:
        try:
            return self.windows[width]
        except KeyError:
            raise KeyError(
                f"SLI {self.name!r} has no {width}s window "
                f"(has {sorted(self.windows)})"
            ) from None

    @property
    def last_bad_at(self) -> float | None:
        stamps = [w.last_bad_at for w in self.windows.values()
                  if w.last_bad_at is not None]
        return max(stamps) if stamps else None


class SLIRecorder:
    """Thread-safe registry of named SLIs sharing one set of window widths."""

    def __init__(self, windows: Sequence[float] = (1.0, 10.0, 60.0)) -> None:
        widths = tuple(sorted(set(float(w) for w in windows)))
        if not widths:
            raise ValueError("recorder needs at least one window width")
        self.windows = widths
        self._lock = threading.Lock()
        self._slis: dict[str, SLI] = {}

    def sli(self, name: str) -> SLI:
        with self._lock:
            sli = self._slis.get(name)
            if sli is None:
                sli = SLI(name, self.windows)
                self._slis[name] = sli
            return sli

    def observe(
        self, name: str, now: float, value: float, good: bool = True,
        trace_id: str | None = None,
    ) -> None:
        sli = self.sli(name)
        with self._lock:
            sli.observe(now, value, good=good, trace_id=trace_id)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._slis)

    def snapshot(self, now: float) -> dict:
        """``{sli: {window_label: window_stats_dict}}`` at *now*."""
        with self._lock:
            slis = dict(self._slis)
        out: dict[str, dict] = {}
        for name in sorted(slis):
            sli = slis[name]
            with self._lock:
                out[name] = {
                    format_duration(width): sli.windows[width].stats(now).to_dict()
                    for width in self.windows
                }
        return out

    def window_values(self, now: float) -> dict[str, dict[str, list[float]]]:
        """``{sli: {window_label: [raw values]}}`` at *now* — what the
        cumulative-histogram export buckets."""
        with self._lock:
            slis = dict(self._slis)
        out: dict[str, dict[str, list[float]]] = {}
        for name in sorted(slis):
            sli = slis[name]
            with self._lock:
                out[name] = {
                    format_duration(width): sli.windows[width].values(now)
                    for width in self.windows
                }
        return out


@dataclass
class HealthMonitor:
    """Continuous health: SLIs + SLO burn-rate alerting + event tail.

    One monitor watches one stream of traffic on one clock: the query
    engine attaches a sim-clock monitor to a chaos run (ticked by a
    simulated process), the serving gateway holds a wall-clock monitor
    ticked lazily whenever HEALTH/ALERTS/STATS are read.

    Parameters
    ----------
    windows:
        Rolling window widths, ascending.  ``windows[0]`` is the fast
        burn window, ``windows[-1]`` the slow one.
    slos:
        Declarative objectives; defaults to
        :func:`repro.obs.slo.default_slos` over ``windows``.
    latency_threshold:
        When set, latency/turnaround observations above it count *bad*
        (feeds the latency SLO).
    event_log:
        Where emitted/correlated events live; defaults to the process
        global log.
    label:
        ``source`` label value on exported Prometheus families (so the
        engine monitor and several gateway monitors can share a registry).
    """

    windows: Sequence[float] = (1.0, 10.0, 60.0)
    slos: Sequence[SLO] | None = None
    latency_threshold: float | None = None
    event_log: EventLog | None = None
    label: str = "engine"
    interval: float | None = None
    history_size: int = 128

    def __post_init__(self) -> None:
        widths = tuple(sorted(set(float(w) for w in self.windows)))
        self.windows = widths
        self.fast_window = widths[0]
        self.slow_window = widths[-1]
        if self.interval is None:
            self.interval = self.fast_window / 2.0
        self.events = (
            self.event_log if self.event_log is not None else default_event_log()
        )
        self.recorder = SLIRecorder(widths)
        slos = (
            tuple(self.slos)
            if self.slos is not None
            else default_slos(widths, latency_threshold=self.latency_threshold)
        )
        self.slo_engine = SLOEngine(self.recorder, slos, self.events)
        self.backlog_fn: Callable[[], int] | None = None
        self.history: deque[dict] = deque(maxlen=self.history_size)
        self.last_now: float = 0.0
        self._registry: MetricsRegistry | None = None
        self._collect_cb = None
        self._lock = threading.Lock()

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_chaos_run(
        cls,
        horizon: float,
        arrival_interval: float = 0.0,
        event_log: EventLog | None = None,
        latency_threshold: float | None = None,
    ) -> "HealthMonitor":
        """A sim-clock monitor scaled to a scripted failure *horizon*.

        The fast window must hold a few arrivals (or burn rates flap on
        sparse traffic) and the slow window should span the whole failure
        story, so both derive from the schedule rather than wall-clock
        defaults.
        """
        horizon = max(horizon, 1e-6)
        fast = max(horizon / 8.0, 2.5 * arrival_interval)
        slow = max(horizon, 4.0 * fast)
        mid = (fast * slow) ** 0.5
        return cls(
            windows=(fast, mid, slow),
            event_log=event_log,
            latency_threshold=latency_threshold,
        )

    # -- observation -----------------------------------------------------------

    def observe_query(
        self,
        now: float,
        turnaround: float,
        coverage: float,
        degraded: bool,
        trace_id: str | None = None,
    ) -> None:
        """Fold one completed cluster query into the SLIs (sim clock)."""
        good = not degraded
        self.recorder.observe("availability", now, 1.0 if good else 0.0,
                              good=good, trace_id=trace_id)
        self.recorder.observe("coverage", now, coverage,
                              good=coverage >= 1.0, trace_id=trace_id)
        slow = (
            self.latency_threshold is not None
            and turnaround > self.latency_threshold
        )
        self.recorder.observe("turnaround", now, turnaround,
                              good=not slow, trace_id=trace_id)

    def observe_request(
        self,
        now: float,
        latency: float,
        degraded: bool = False,
        trace_id: str | None = None,
    ) -> None:
        """Fold one gateway request into the SLIs (wall clock)."""
        good = not degraded
        self.recorder.observe("availability", now, 1.0 if good else 0.0,
                              good=good, trace_id=trace_id)
        slow = (
            self.latency_threshold is not None
            and latency > self.latency_threshold
        )
        self.recorder.observe("turnaround", now, latency,
                              good=not slow, trace_id=trace_id)

    # -- ticking ---------------------------------------------------------------

    def tick(self, now: float) -> list:
        """One evaluation step at *now*: sample the repair backlog,
        evaluate every SLO, and append a dashboard frame.
        Returns the alert transitions this tick produced."""
        with self._lock:
            self.last_now = max(self.last_now, now)
            if self.backlog_fn is not None:
                backlog = float(self.backlog_fn())
                self.recorder.observe("repair_backlog", now, backlog,
                                      good=backlog == 0)
            transitions = self.slo_engine.evaluate(now)
            self.history.append(self.snapshot_locked(now))
            return transitions

    def tick_proc(self, sim, stop_at: float):
        """Generator process ticking this monitor on a simulation clock
        until *stop_at* (monitors must terminate or the heap never
        drains)."""
        while sim.now + self.interval <= stop_at:
            yield self.interval
            self.tick(sim.now)

    # -- reading ---------------------------------------------------------------

    def snapshot(self, now: float | None = None) -> dict:
        with self._lock:
            return self.snapshot_locked(
                now if now is not None else self.last_now
            )

    def snapshot_locked(self, now: float) -> dict:
        """The full dashboard frame at *now* (caller holds the lock or is
        the tick path)."""
        return {
            "now": now,
            "windows": [format_duration(w) for w in self.windows],
            "slis": self.recorder.snapshot(now),
            "alerts": self.slo_engine.states_dict(now),
            "transitions": [t.to_dict() for t in self.slo_engine.transitions],
            "events": [e.to_dict() for e in self.events.tail(20)],
        }

    def alerts_firing(self) -> list[str]:
        return self.slo_engine.firing()

    # -- Prometheus export -----------------------------------------------------

    def install(self, registry: MetricsRegistry) -> None:
        """Export SLI windows and alert states as collect-time families."""
        if self._collect_cb is not None:
            return
        self._registry = registry
        self._collect_cb = registry.register_callback(self._collect)

    def uninstall(self) -> None:
        if self._collect_cb is not None and self._registry is not None:
            self._registry.unregister_callback(self._collect_cb)
        self._collect_cb = None
        self._registry = None

    _ALERT_LEVELS = {"ok": 0.0, "resolved": 0.0, "warning": 1.0, "critical": 2.0}

    #: bucket upper bounds for the cumulative SLI-window histogram export;
    #: the latency-shaped defaults plus coarse tails for rate/level SLIs
    #: whose values run past 10 (counts per tick, burn rates).
    SLI_BUCKETS: tuple[float, ...] = DEFAULT_BUCKETS + (25.0, 100.0, 1000.0)

    def _collect(self) -> Iterable[FamilySnapshot]:
        now = self.last_now
        ratio = FamilySnapshot(
            name="repro_sli_window_good_ratio", kind="gauge",
            help="Fraction of good observations per SLI rolling window",
        )
        quantiles = FamilySnapshot(
            name="repro_sli_window_value", kind="gauge",
            help="SLI value aggregates (quantiles, mean, max) per rolling window",
        )
        counts = FamilySnapshot(
            name="repro_sli_window_count", kind="gauge",
            help="Observations currently inside each SLI rolling window",
        )
        snapshot = self.recorder.snapshot(now)
        for sli_name, per_window in snapshot.items():
            for window_label, stats in per_window.items():
                base = (
                    ("source", self.label),
                    ("sli", sli_name),
                    ("window", window_label),
                )
                counts.samples.append(Sample(
                    counts.name, base, float(stats["count"])
                ))
                ratio.samples.append(Sample(
                    ratio.name, base, float(stats["good_ratio"])
                ))
                for stat in ("p50", "p90", "p99", "mean", "max"):
                    quantiles.samples.append(Sample(
                        quantiles.name, base + (("stat", stat),),
                        float(stats[stat]),
                    ))
        # Standard cumulative histogram series over the same windows, so an
        # external Prometheus/Grafana can run histogram_quantile() natively
        # instead of trusting the precomputed stat gauges above.
        # (named _dist, not the bare prefix: the histogram's implicit
        # _count series must not collide with the repro_sli_window_count
        # gauge above)
        histogram = FamilySnapshot(
            name="repro_sli_window_dist", kind="histogram",
            help="SLI value distribution per rolling window "
                 "(cumulative buckets)",
        )
        for sli_name, per_window in self.recorder.window_values(now).items():
            for window_label, values in per_window.items():
                base = (
                    ("source", self.label),
                    ("sli", sli_name),
                    ("window", window_label),
                )
                running = 0
                remaining = sorted(values)
                idx = 0
                for bound in self.SLI_BUCKETS:
                    while idx < len(remaining) and remaining[idx] <= bound:
                        idx += 1
                    running = idx
                    histogram.samples.append(Sample(
                        histogram.name + "_bucket",
                        base + (("le", _format_value(bound)),),
                        float(running),
                    ))
                histogram.samples.append(Sample(
                    histogram.name + "_bucket",
                    base + (("le", "+Inf"),),
                    float(len(remaining)),
                ))
                histogram.samples.append(Sample(
                    histogram.name + "_sum", base, float(sum(remaining)),
                ))
                histogram.samples.append(Sample(
                    histogram.name + "_count", base, float(len(remaining)),
                ))
        burn = FamilySnapshot(
            name="repro_slo_burn_rate", kind="gauge",
            help="SLO error-budget burn rate per evaluation window",
        )
        state = FamilySnapshot(
            name="repro_alert_state", kind="gauge",
            help="Alert severity per SLO (0 ok, 1 warning, 2 critical)",
        )
        for name, alert in self.slo_engine.states_dict(now).items():
            labels = (("source", self.label), ("slo", name))
            state.samples.append(Sample(
                state.name, labels,
                self._ALERT_LEVELS.get(alert["state"], 0.0),
            ))
            burn.samples.append(Sample(
                burn.name, labels + (("window", "fast"),),
                float(alert["burn_fast"]),
            ))
            burn.samples.append(Sample(
                burn.name, labels + (("window", "slow"),),
                float(alert["burn_slow"]),
            ))
        transitions = FamilySnapshot(
            name="repro_alert_transitions_total", kind="counter",
            help="Alert state transitions by SLO and new state",
        )
        for (slo_name, to), count in sorted(
            self.slo_engine.transition_counts().items()
        ):
            transitions.samples.append(Sample(
                transitions.name,
                (("source", self.label), ("slo", slo_name), ("to", to)),
                float(count),
            ))
        return [state, burn, counts, ratio, quantiles, histogram, transitions]
