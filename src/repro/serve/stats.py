"""Service-level accounting: request counters and latency percentiles.

Everything here measures *wall-clock service behaviour* (queueing, shedding,
latency), which is distinct from the *simulated* turnaround carried
inside each :class:`~repro.core.query.QueryReport` — see DESIGN.md for how
the clocks layer.

:class:`ServiceStats` is a thin view over :mod:`repro.obs.metrics`
primitives in a shared registry: the gateway's request counters are
children of ``repro_serve_requests_total{service,event}`` and its latencies
a child of ``repro_serve_request_latency_seconds{service}``, so the METRICS
scrape and the STATS snapshot read the *same* numbers.  Each service instance gets its
own ``service`` label (``svc0``, ``svc1``, ...) so several gateways in one
process stay distinguishable while sharing the one registry.
"""

from __future__ import annotations

import itertools
import time

from repro.obs.metrics import MetricsRegistry, default_registry

_service_ids = itertools.count()

#: The request-outcome events the gateway counts (the ``event`` label values
#: of ``repro_serve_requests_total``).
EVENTS = (
    "received",
    "completed",
    "shed",
    "timeouts",
    "invalid",
    "errors",
    "degraded",
    "partial_rejected",
)


def next_service_label() -> str:
    """A process-unique ``service`` label value (``svc0``, ``svc1``, ...)."""
    return f"svc{next(_service_ids)}"


class ServiceStats:
    """Thread-safe gateway counters, surfaced through STATS *and* METRICS.

    Counter names (``received``, ``completed``, ...) read as plain
    attributes for compatibility, but the values live in the shared metrics
    registry under ``repro_serve_requests_total{service,event}``; sheds are
    additionally counted as ``repro_admission_rejections_total{service}``.
    """

    def __init__(
        self,
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
        service: str | None = None,
    ) -> None:
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else default_registry()
        self.service = service if service is not None else next_service_label()
        family = self.registry.counter(
            "repro_serve_requests_total",
            "Gateway requests by outcome event",
            ("service", "event"),
        )
        self._events = {
            name: family.labels(service=self.service, event=name)
            for name in EVENTS
        }
        self._rejections = self.registry.counter(
            "repro_admission_rejections_total",
            "Requests shed by gateway admission control",
            ("service",),
        ).labels(service=self.service)
        # Exact count / mean / max over the whole stream; percentiles over
        # the last 1,024 samples (the recent window a dashboard watches).
        self._latency = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "Wall-clock request latency observed at the serving gateway",
            ("service",),
            reservoir=1024,
        ).labels(service=self.service)

    def __getattr__(self, name: str):
        events = self.__dict__.get("_events")
        if events is not None and name in events:
            return int(events[name].value)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def inc(self, name: str) -> None:
        self._events[name].inc()
        if name == "shed":
            self._rejections.inc()

    def record_latency(self, seconds: float) -> None:
        self._events["completed"].inc()
        self._latency.observe(seconds)

    def snapshot(self) -> dict:
        out = {"uptime_s": round(self._clock() - self.started_at, 3)}
        for name in EVENTS:
            out[name] = int(self._events[name].value)
        latency = self._latency
        out["latency"] = {
            "count": int(latency.count),
            "mean_ms": round(latency.mean * 1e3, 3),
            "p50_ms": round(latency.percentile(50) * 1e3, 3),
            "p90_ms": round(latency.percentile(90) * 1e3, 3),
            "p99_ms": round(latency.percentile(99) * 1e3, 3),
            "max_ms": round(latency.max * 1e3, 3),
        }
        return out
