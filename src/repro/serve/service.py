"""The concurrent query service: admission control, deadlines, cache.

:class:`QueryService` fronts one built :class:`~repro.core.framework.Mendel`
deployment with the serving behaviours a library facade lacks:

* one **engine worker** thread runs everything that touches the index —
  each admitted request as one ``mendel.query_many([record])`` call,
  EXPLAIN, the gateway's SCRUB, RECOVER and SCALE, and every autoscaler
  tick — one call at a time, in arrival order;
* a **bounded admission queue** caps in-flight work — submissions past the
  bound fast-fail with a structured :class:`~repro.serve.errors.Overloaded`
  error instead of growing an unbounded backlog (load shedding);
* **per-request deadlines** — requests that expire while queued are dropped
  at execution time, and waiters get a structured
  :class:`~repro.serve.errors.DeadlineExceeded`;
* a **result cache** (LRU + TTL) short-circuits repeated searches, and is
  invalidated whenever the index version changes (cache coherence with
  ``insert`` / ``add_node``).

The service measures *wall-clock* latency (what a caller experiences on
this process); each report still carries the paper's *simulated* cluster
turnaround.  DESIGN.md discusses how the two layers compose.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.core.framework import Mendel
from repro.core.params import QueryParams
from repro.core.query import QueryReport
from repro.obs.analyze import (
    cluster_slow_queries,
    merge_critical_tables,
    query_entry,
)
from repro.obs.events import EventLog
from repro.obs.export import prometheus_text
from repro.obs.health import HealthMonitor
from repro.obs.metrics import FamilySnapshot, MetricsRegistry, Sample, default_registry
from repro.obs.profile import Profiler
from repro.obs.trace import TraceContext
from repro.seq.records import SequenceRecord
from repro.serve.cache import MISS, ResultCache
from repro.serve.errors import (
    DeadlineExceeded,
    DegradedResult,
    InvalidRequest,
    Overloaded,
    ServiceClosed,
)
from repro.serve.stats import ServiceStats


@dataclass
class ServeResult:
    """What the service resolves a request's future with."""

    report: QueryReport
    cached: bool = False
    #: wall-clock seconds from submission to completion (0 for cache hits)
    latency: float = 0.0
    #: trace id of the span tree recorded for this request (None when
    #: tracing is off)
    trace_id: str | None = None


@dataclass
class _Request:
    record: SequenceRecord
    params: QueryParams
    cache_key: str
    deadline_at: float | None
    submitted_at: float = 0.0
    #: accept a degraded (coverage < 1) report instead of a structured error
    allow_partial: bool = True


class QueryService:
    """Concurrent, cached, load-shedding front end over one deployment.

    Parameters
    ----------
    mendel:
        The built deployment to serve.
    max_pending:
        Admission bound: maximum requests in flight (waiting for the engine
        worker plus executing).  Submissions beyond it are shed.
    cache_capacity / cache_ttl:
        Result-cache shape; ``cache_capacity=0`` disables caching.
    tracing:
        Record a span tree per executed request (``result.trace_id``; the
        tree rides on ``report.root_span``).
    slow_query_threshold / slow_log_size:
        Requests whose wall-clock latency exceeds the threshold (seconds)
        are kept — span-tree summary included — in a bounded log surfaced
        as ``snapshot()["slow_queries"]``.  ``None`` disables the log.
    registry:
        Metrics registry to account into; defaults to the process-global
        one (so one METRICS scrape covers cluster and gateway).
    monitor:
        The wall-clock :class:`~repro.obs.health.HealthMonitor` backing the
        HEALTH/ALERTS verbs; auto-created (1s/10s/60s windows, latency SLO
        at the slow-query threshold when one is set) unless given.  Ticked
        lazily whenever health/alerts/stats/scale are read, so an idle
        gateway spends nothing on it.
    event_log:
        Event log the service emits into (slow queries, alerts); defaults
        to the process-global log shared with the cluster.
    """

    def __init__(
        self,
        mendel: Mendel,
        *,
        max_pending: int = 64,
        cache_capacity: int = 1024,
        cache_ttl: float | None = None,
        clock=time.monotonic,
        tracing: bool = True,
        slow_query_threshold: float | None = None,
        slow_log_size: int = 32,
        registry: MetricsRegistry | None = None,
        monitor: HealthMonitor | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.mendel = mendel
        self.max_pending = max_pending
        self.registry = registry if registry is not None else default_registry()
        self.stats = ServiceStats(clock=clock, registry=self.registry)
        self.tracing = tracing
        self.slow_query_threshold = slow_query_threshold
        self.cache = (
            ResultCache(capacity=cache_capacity, ttl=cache_ttl, clock=clock)
            if cache_capacity
            else None
        )
        self._slow_log: deque[dict] = deque(maxlen=max(1, slow_log_size))
        self._m_slow = self.registry.counter(
            "repro_slow_queries_total",
            "Requests that exceeded the gateway's slow-query threshold",
            ("service",),
        ).labels(service=self.stats.service)
        self._clock = clock
        # One engine worker: index-touching calls run one at a time, in the
        # order they were submitted.  A query is interpreter-bound, so two
        # at once finish no sooner than one after the other and cost more
        # CPU between them; SCRUB, RECOVER and autoscaler ticks rebuild
        # nodes a running query reads.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._inflight = 0
        self._seen_version = mendel.index_version
        self._closed = False
        # Collect-time callback: cache hit/miss counts and queue depth are
        # already tracked by the cache and admission layers, so METRICS
        # derives them at scrape time instead of double-counting.
        self._collect_cb = self.registry.register_callback(self._derived_families)
        # Balance audit gauges ride the same registry; the auditor caches
        # against index.version so scrapes stay cheap.
        self._balance = mendel._balance_auditor()
        self._balance.install(self.registry)
        # Continuous health on the gateway's wall clock: request latencies
        # and degradation feed the SLIs; ticking happens lazily on reads.
        if monitor is None:
            monitor = HealthMonitor(
                windows=(1.0, 10.0, 60.0),
                latency_threshold=slow_query_threshold,
                event_log=event_log,
                label=self.stats.service,
            )
        self.monitor = monitor
        self.monitor.install(self.registry)
        #: optional elastic control loop (see :meth:`enable_autoscaler`)
        self.scaler = None
        #: live continuous profiler (see :meth:`profile`), plus the last
        #: snapshot retained after a stop so PROFILE stays inspectable
        self._profiler: Profiler | None = None
        self._last_profile: dict | None = None

    # -- elasticity ------------------------------------------------------------

    def enable_autoscaler(self, policy=None, **kwargs) -> "AutoScaler":
        """Attach an :class:`~repro.scale.controller.AutoScaler` to this
        gateway.

        The scaler shares the service's wall-clock monitor, registry, and
        event log, and reads the admission queue for pressure.  It has no
        thread of its own: :meth:`snapshot`, :meth:`health` and
        :meth:`alerts` queue a due tick on the engine worker without
        waiting for it, and the gateway's SCALE runs :meth:`scale_status`
        there, so every tick lands between two queries.  Keyword arguments
        pass through to the controller."""
        from repro.scale.controller import AutoScaler

        if self.scaler is None:
            self.scaler = AutoScaler(
                index=self.mendel.index,
                monitor=self.monitor,
                queue_depth_fn=lambda: self.queue_depth,
                queue_capacity=self.max_pending,
                registry=self.registry,
                wall=True,
                **({"policy": policy} if policy is not None else {}),
                **kwargs,
            )
        return self.scaler

    @contextmanager
    def _ticked(self):
        """Tick the monitor at now (yielded); once the reply body is built,
        queue a due autoscaler tick on the engine worker, unawaited."""
        now = self._clock()
        self.monitor.tick(now)
        yield now
        if self.scaler is not None and not self._closed:
            self.on_engine(self.scaler.maybe_tick, now).add_done_callback(
                self._on_tick_done
            )

    def _on_tick_done(self, future: Future) -> None:
        if future.exception() is not None:
            self.monitor.events.emit("scale_failed", self.stats.service,
                                     f"tick failed: {future.exception()!r}")

    def scale_status(self) -> dict:
        """The SCALE verb, run on the engine worker by the gateway: a due
        autoscaler tick, then its state; or ``enabled: False``."""
        if self.scaler is None:
            return {"enabled": False}
        now = self._clock()
        self.monitor.tick(now)
        self.scaler.maybe_tick(now)
        return {"enabled": True, **self.scaler.status()}

    # -- submission ------------------------------------------------------------

    def submit_text(
        self,
        text: str,
        params: QueryParams | None = None,
        query_id: str = "query",
        deadline: float | None = None,
        allow_partial: bool = True,
    ) -> Future:
        """Encode *text* under the index alphabet and submit it."""
        record = self._encode(text, query_id)
        if isinstance(record, InvalidRequest):
            self.stats.inc("received")
            self.stats.inc("invalid")
            return _failed(record)
        return self.submit(
            record, params, deadline=deadline, allow_partial=allow_partial
        )

    def submit(
        self,
        record: SequenceRecord,
        params: QueryParams | None = None,
        deadline: float | None = None,
        allow_partial: bool = True,
    ) -> Future:
        """Admit one query; returns a future resolving to :class:`ServeResult`.

        Structured failures (:class:`Overloaded`, :class:`DeadlineExceeded`,
        :class:`InvalidRequest`, :class:`ServiceClosed`,
        :class:`DegradedResult`) are delivered by raising from the future,
        never by crashing the service.

        ``allow_partial=False`` turns a degraded report (node failures left
        ``coverage < 1``) into a :class:`DegradedResult` error; the default
        accepts best-effort answers and lets callers inspect
        ``report.coverage`` themselves.
        """
        self.stats.inc("received")
        if self._closed:
            return _failed(ServiceClosed("service is closed"))
        params = params or QueryParams()
        problem = self._validate(record)
        if problem is not None:
            self.stats.inc("invalid")
            return _failed(problem)

        self._refresh_cache_epoch()
        key = ResultCache.make_key(
            self.mendel.index.alphabet.name, record.text, params
        )
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not MISS:
                replayed = _replay(hit, record.seq_id)
                return _done(
                    ServeResult(
                        report=replayed, cached=True,
                        trace_id=replayed.trace_id,
                    )
                )

        with self._lock:
            if self._inflight >= self.max_pending:
                self.stats.inc("shed")
                return _failed(
                    Overloaded(
                        f"admission queue full ({self._inflight} in flight, "
                        f"bound {self.max_pending})"
                    )
                )
            self._inflight += 1

        now = self._clock()
        request = _Request(
            record=record,
            params=params,
            cache_key=key,
            deadline_at=(now + deadline) if deadline is not None else None,
            submitted_at=now,
            allow_partial=allow_partial,
        )
        future = self.on_engine(self._execute, request)
        future.add_done_callback(self._on_done)
        return future

    def query(
        self,
        record: SequenceRecord,
        params: QueryParams | None = None,
        deadline: float | None = None,
        allow_partial: bool = True,
    ) -> ServeResult:
        """Synchronous submit-and-wait; raises structured errors directly."""
        return self._wait(
            self.submit, record, params,
            deadline=deadline, allow_partial=allow_partial,
        )

    def query_text(
        self,
        text: str,
        params: QueryParams | None = None,
        query_id: str = "query",
        deadline: float | None = None,
        allow_partial: bool = True,
    ) -> ServeResult:
        """:meth:`query` for a residue string (see :meth:`submit_text`)."""
        return self._wait(
            self.submit_text, text, params, query_id=query_id,
            deadline=deadline, allow_partial=allow_partial,
        )

    def _wait(self, submit, *args, deadline: float | None, **kwargs):
        """Submit with the deadline and wait that long."""
        future = submit(*args, deadline=deadline, **kwargs)
        try:
            return future.result(timeout=deadline)
        except FutureTimeoutError:
            self.stats.inc("timeouts")
            raise DeadlineExceeded(
                f"no result within the {deadline}s deadline"
            ) from None

    # -- explain ---------------------------------------------------------------

    def submit_explain(
        self,
        text: str,
        params: QueryParams | None = None,
        query_id: str = "explain",
    ) -> Future:
        """Encode *text* and EXPLAIN it on the engine worker: run it once
        traced, bypassing the cache (the plan must reflect a real cluster
        execution, not a replayed one); resolves to a
        :class:`~repro.core.explain.QueryPlan`."""
        record = self._encode(text, query_id)
        problem = (
            record if isinstance(record, InvalidRequest)
            else self._validate(record)
        )
        if problem is not None:
            return _failed(problem)
        return self.on_engine(self.mendel.explain, record, params)

    # -- execution -------------------------------------------------------------

    def on_engine(self, verb, /, *args, **kwargs) -> Future:
        """Queue ``verb(*args, **kwargs)`` on the engine worker, behind every
        call already queued there; the future carries its result or error.
        The gateway runs SCRUB, RECOVER, SCALE and autoscaler ticks this
        way."""
        if self._closed:
            return _failed(ServiceClosed("service is closed"))
        try:
            return self._pool.submit(verb, *args, **kwargs)
        except RuntimeError:  # a racing close() already shut the pool down
            return _failed(ServiceClosed("service is closed"))

    def _execute(self, request: _Request) -> ServeResult:
        """Run one admitted request on the engine worker as one engine call."""
        now = self._clock()
        if request.deadline_at is not None and now > request.deadline_at:
            self.stats.inc("timeouts")
            waited = now - request.submitted_at
            raise DeadlineExceeded(
                f"deadline expired after {waited * 1e3:.1f} ms in queue"
            )
        contexts = [TraceContext()] if self.tracing else None
        try:
            (report,) = self.mendel.query_many(
                [request.record], request.params, trace_contexts=contexts
            )
        except Exception:  # backend failure: fail this request only
            self.stats.inc("errors")
            raise
        done = self._clock()
        if report.degraded:
            # A degraded answer reflects transient cluster state, not the
            # search — never cache it, or the failure outlives the repair.
            self.stats.inc("degraded")
            if not request.allow_partial:
                self.stats.inc("partial_rejected")
                raise DegradedResult(
                    f"only {report.coverage:.1%} of the index was "
                    f"searchable ({len(report.failed_nodes)} node(s) "
                    "failed) and the request required a complete answer",
                    coverage=report.coverage,
                    failed_nodes=report.failed_nodes,
                )
        elif self.cache is not None:
            self.cache.put(request.cache_key, report)
        latency = done - request.submitted_at
        self.stats.record_latency(latency)
        self.monitor.observe_request(
            done, latency, degraded=report.degraded, trace_id=report.trace_id,
        )
        if (
            self.slow_query_threshold is not None
            and latency > self.slow_query_threshold
        ):
            self._note_slow(report, latency)
        return ServeResult(
            report=report, cached=False, latency=latency,
            trace_id=report.trace_id,
        )

    def _note_slow(self, report: QueryReport, latency: float) -> None:
        """Keep a threshold-exceeding request in the slow log: its
        :func:`~repro.obs.analyze.query_entry` plus the wall-clock latency
        and the rendered span tree; and emit it as an event."""
        root = report.root_span
        entry = {
            **query_entry(report),
            "latency_ms": round(latency * 1e3, 3),
            "spans": root.format_tree() if root is not None else None,
        }
        with self._lock:
            self._slow_log.append(entry)
        self._m_slow.inc()
        # The same entry, joinable: the event log row carries the trace id
        # the slow-log entry does, so a slow query, its span tree, and any
        # alert it contributed to all meet on one key.
        self.monitor.events.emit(
            "slow_query",
            self.stats.service,
            f"{report.query_id} took {latency * 1e3:.1f} ms",
            trace_id=report.trace_id,
            latency_ms=entry["latency_ms"],
            turnaround_ms=entry["turnaround_ms"],
            degraded=report.degraded,
        )

    # -- lifecycle & introspection --------------------------------------------

    def _on_done(self, _future: Future) -> None:
        with self._lock:
            self._inflight -= 1

    def _encode(self, text, query_id) -> SequenceRecord | InvalidRequest:
        try:
            return SequenceRecord.from_text(
                query_id, text, self.mendel.index.alphabet
            )
        except (ValueError, KeyError) as exc:
            return InvalidRequest(str(exc))

    def _validate(self, record: SequenceRecord) -> InvalidRequest | None:
        index = self.mendel.index
        if record.alphabet.name != index.alphabet.name:
            return InvalidRequest(
                f"query alphabet {record.alphabet.name!r} does not match the "
                f"indexed alphabet {index.alphabet.name!r}"
            )
        if len(record) < index.segment_length:
            return InvalidRequest(
                f"query length {len(record)} is shorter than the indexed "
                f"segment length {index.segment_length}"
            )
        return None

    def _refresh_cache_epoch(self) -> None:
        """Invalidate the cache when the index has mutated since last seen."""
        if self.cache is None:
            return
        version = self.mendel.index_version
        with self._lock:
            if version != self._seen_version:
                self._seen_version = version
                self.cache.invalidate()

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._inflight

    def snapshot(self) -> dict:
        """Everything the STATS op reports."""
        out = self.stats.snapshot()
        out["queue_depth"] = self.queue_depth
        out["max_pending"] = self.max_pending
        out["index_version"] = self.mendel.index_version
        out["cache"] = self.cache.snapshot() if self.cache is not None else None
        out["slow_query_threshold"] = self.slow_query_threshold
        with self._lock:
            out["slow_queries"] = list(self._slow_log)
        out["balance"] = self._balance.report().summary()
        with self._ticked():
            out["alerts_firing"] = self.monitor.alerts_firing()
        return out

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this service's registry (the
        process-global one by default, so cluster counters ride along) —
        what the METRICS verb returns."""
        return prometheus_text(self.registry)

    def _derived_families(self) -> list[FamilySnapshot]:
        """Collect-time samples for values other components already track."""
        labels = (("service", self.stats.service),)

        def family(name, kind, help_, values) -> FamilySnapshot:
            """One family from ``(extra labels, value)`` pairs."""
            return FamilySnapshot(name, kind, help_, [
                Sample(name, labels + extra, float(value))
                for extra, value in values
            ])

        snaps = [family("repro_serve_queue_depth", "gauge",
                        "Requests currently in flight at the gateway",
                        [((), self.queue_depth)])]
        if self.cache is not None:
            cache = self.cache.stats
            snaps.append(family("repro_cache_hits_total", "counter",
                                "Result-cache hits at the serving gateway",
                                [((), cache.hits)]))
            snaps.append(family("repro_cache_misses_total", "counter",
                                "Result-cache misses at the serving gateway",
                                [((), cache.misses)]))
        profiler = self._profiler
        if profiler is not None:
            sampling = profiler.sampler
            snaps.append(family("repro_profile_samples_total", "counter",
                                "Stacks captured by the continuous profiler",
                                [((), sampling.snapshot()["samples"])]))
            snaps.append(family(
                "repro_profile_overhead_ratio", "gauge",
                "Fraction of wall time the sampling profiler spends on itself",
                [((), sampling.overhead)],
            ))
        with self._lock:
            entries = list(self._slow_log)
        if entries:
            families = cluster_slow_queries(entries)
            snaps.append(family(
                "repro_slowfamily_queries", "gauge",
                "Slow-log entries per trace family (span-shape cluster)",
                [((("family", f["family"]),), f["count"]) for f in families],
            ))
            snaps.append(family(
                "repro_slowfamily_turnaround_ms", "gauge",
                "Mean sim-clock turnaround per slow trace family",
                [((("family", f["family"]),), f["mean_turnaround_ms"])
                 for f in families],
            ))
        return snaps

    def health(self) -> dict:
        """Liveness summary: service state plus the cluster's.

        ``status`` is ``"degraded"`` (not ``"ok"``) while any storage node
        is dead — answers may be partial until repair or rejoin completes.
        """
        cluster = self.mendel.cluster_health()
        if self._closed:
            status = "closed"
        elif cluster["nodes_dead"]:
            status = "degraded"
        else:
            status = "ok"
        with self._ticked():
            firing = self.monitor.alerts_firing()
            if status == "ok" and firing:
                status = "alerting"
            durability = self.mendel.durability()
            body = {
                "status": status,
                "queue_depth": self.queue_depth,
                "max_pending": self.max_pending,
                "index_version": self.mendel.index_version,
                "cluster": cluster,
                "balance": self._balance.report().summary(),
                "alerts_firing": firing,
                "alerts": self.monitor.slo_engine.states_dict(),
                # The durable substrate, rolled up: RAM can be rebuilt, these
                # can't — a degraded WAL or full device is pre-outage signal.
                "durability": {
                    "durable_blocks": durability["durable_blocks"],
                    "wal_records": durability["wal_records"],
                    "degraded_nodes": durability["degraded_nodes"],
                },
                # Tier occupancy rollup: zeroes while the deployment is all-RAM.
                "storage": self._storage_health(),
            }
        return body

    def _storage_health(self) -> dict:
        tier = self.mendel.index.tier_report()
        cache = tier.get("cache") or {}
        return {
            "tiered": tier["enabled"],
            "spilled_nodes": tier["spilled_nodes"],
            "bytes_on_disk": tier["bytes_on_disk"],
            "compression_ratio": tier["compression_ratio"],
            "resident_fraction": tier["resident_fraction"],
            "pinned_pages": tier.get("pinned_pages", 0),
            "cold_read_seeks": tier.get("cold_read_seeks", 0),
            "cold_read_bytes": tier.get("cold_read_bytes", 0),
            "cache_hits": cache.get("hits", 0.0),
            "cache_misses": cache.get("misses", 0.0),
            "cache_evictions": cache.get("evictions", 0.0),
            "cache_resident_pages": cache.get("resident_pages", 0),
        }

    # -- durability and integrity ----------------------------------------------

    def scrub(self, heal: bool = True) -> dict:
        """The SCRUB verb: :meth:`MendelIndex.scrub
        <repro.core.index.MendelIndex.scrub>` at the wall clock's now.

        Its observations feed the gateway monitor's ``integrity`` SLI and
        event log, and this service's registry, so a scrub that finds rot
        also fires the integrity alert with a correlated cause.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        report = self.mendel.index.scrub(
            heal=heal,
            event_log=self.monitor.events,
            recorder=self.monitor.recorder,
            registry=self.registry,
            now=self._clock(),
        )
        self.monitor.tick(self._clock())
        return {"healed": heal, **report.to_dict()}

    def recover(self, node_id: str | None = None) -> dict:
        """The RECOVER verb: restart crashed node(s) from durable state.

        With ``node_id`` recovers that node; without, every dead node.
        Each recovery replays the node's durable medium — its snapshot +
        WAL, or the block file of a node that crashed spilled — and
        reconciles its group back to canonical placement.  Returns the
        per-node replay reports (blocks replayed, torn records, CRC errors;
        ``tier_blocks`` counts the rows read from a block file, so it
        equals ``blocks`` for a spilled node and is 0 otherwise).
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        index = self.mendel.index
        dead = sorted(
            n.node_id for n in index.topology.nodes if not n.alive
        )
        targets = [node_id] if node_id is not None else dead
        recovered = {}
        for target in targets:
            node = index.recover_node(target)  # KeyError for unknown nodes
            recovered[target] = dict(node.last_recovery or {})
            self.monitor.events.emit(
                "restart", target,
                f"{target} recovered from durable state "
                f"({recovered[target].get('blocks', 0)} blocks replayed)",
            )
        return {
            "was_dead": dead,
            "recovered": recovered,
            "still_dead": sorted(
                n.node_id for n in index.topology.nodes if not n.alive
            ),
        }

    def alerts(self) -> dict:
        """The ALERTS verb: the monitor's full frame — SLI windows, alert
        states with correlated causes, recent transitions, event tail.

        The frame also carries the tier-storage rollup so ``repro watch
        --gateway`` can render its tier-cache panel from one poll."""
        with self._ticked() as now:
            out = self.monitor.snapshot(now)
            out["firing"] = self.monitor.alerts_firing()
            out["storage"] = self._storage_health()
            if self._profiler is not None:
                out["profile"] = self._profiler.snapshot()
        return out

    def profile(self, action: str = "snapshot", hz: float | None = None) -> dict:
        """The PROFILE verb: start/snapshot/stop the continuous profiler.

        ``start`` attaches a :class:`~repro.obs.profile.Profiler` (sampling
        wall-clock stacks tagged with span stages, plus the deterministic
        cost profiler charging sim counters to code sites); idempotent —
        a second start reports the running profiler.  ``snapshot`` returns
        the live aggregate without disturbing it (or the last retained one
        after a stop).  ``stop`` detaches and returns the final profile.
        """
        if action not in ("start", "snapshot", "stop"):
            raise InvalidRequest(
                f"unknown profile action {action!r}; "
                "expected start, snapshot, or stop"
            )
        if action == "start":
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._profiler is None:
                self._profiler = Profiler(**({"hz": hz} if hz else {}))
                self._profiler.start()
            snap = self._profiler.snapshot()
            snap["action"] = "start"
            return snap
        if action == "stop":
            if self._profiler is None:
                raise InvalidRequest("no profiler is running")
            snap = self._profiler.stop()
            snap["action"] = "stop"
            self._last_profile = snap
            self._profiler = None
            return snap
        if self._profiler is not None:
            snap = self._profiler.snapshot()
        elif self._last_profile is not None:
            snap = dict(self._last_profile)
        else:
            raise InvalidRequest(
                "no profiler is running and none has run; "
                "start one with action='start'"
            )
        snap["action"] = "snapshot"
        return snap

    def analyze(self) -> dict:
        """The ANALYZE verb: trace analytics over the slow-query log.

        Clusters the logged entries into span-shape families (named, with
        exemplar trace ids) and merges their per-entry critical-path
        tables into one flamegraph-style per-stage breakdown whose
        self-times sum to the logged turnarounds exactly.
        """
        with self._lock:
            entries = list(self._slow_log)
        return {
            "slow_queries": len(entries),
            "slow_query_threshold": self.slow_query_threshold,
            "families": cluster_slow_queries(entries),
            "critical_path": merge_critical_tables(
                entry.get("critical_path") or [] for entry in entries
            ),
        }

    def close(self) -> None:
        """Stop admitting work, finish admitted requests, release the
        engine worker."""
        if self._closed:
            return
        self._closed = True
        if self._profiler is not None:
            self._last_profile = self._profiler.stop()
            self._profiler = None
        self.registry.unregister_callback(self._collect_cb)
        self._balance.uninstall()
        self.monitor.uninstall()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _replay(report: QueryReport, query_id: str) -> QueryReport:
    """A cache hit re-addressed to the requesting query id.

    Alignments keep the original query's id (they are frozen and shared);
    only the report envelope is re-labelled.
    """
    return replace(report, query_id=query_id)


def _failed(error: Exception) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


def _done(result: ServeResult) -> Future:
    future: Future = Future()
    future.set_result(result)
    return future
