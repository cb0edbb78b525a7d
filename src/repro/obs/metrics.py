"""Thread-safe metrics: counters, gauges, bucketed histograms, one registry.

The model follows Prometheus' client conventions closely enough that the
text exposition (:func:`repro.obs.export.prometheus_text`) is directly
scrapeable:

* a **metric family** has a name, help string, and fixed label names;
* ``family.labels(group="g00")`` returns (creating on first use) a *child*
  holding the actual value for that label combination; unlabelled families
  have one implicit child;
* registries hand out families get-or-create style, so hot paths can
  resolve a child once and hold onto it — the per-increment cost is one
  lock acquire and an add.

:class:`Histogram` children keep, besides the cumulative buckets Prometheus
wants, a bounded reservoir of recent samples for exact recent-window
percentiles (what a serving dashboard actually watches) and the stream
maximum — this is what lets the gateway's latency tracker ride on the same
type.

A process-global default registry (:func:`default_registry`) is shared by
the cluster hot paths (distance evaluations, subquery routing, repair
bytes) and the serving gateway, so one METRICS scrape sees the whole
system.  **Registry callbacks** let components export values computed at
collect time (cache hit rates, queue depths) without double bookkeeping.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds), Prometheus-style.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Invalid metric usage: bad names, mismatched labels, re-typed names."""


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass
class FamilySnapshot:
    """A family's samples at one collect, as the exporter consumes them."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    samples: list[Sample] = field(default_factory=list)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise MetricError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names in {names!r}")
    return names


class _Family:
    """Shared family machinery: child creation keyed on label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labelvalues: object):
        """The child for this label combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    def remove(self, **labelvalues: object) -> bool:
        """Drop the child for this exact label combination; returns whether
        one existed.  Used when the labelled entity (a node, a group) leaves
        the topology, so the exposition does not grow without bound."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            return self._children.pop(key, None) is not None

    def purge_matching(self, labelvalues: dict[str, str]) -> int:
        """Drop every child matching **all** of the *labelvalues* pairs this
        family carries; returns the count removed.

        Pairs whose label name the family does not carry are ignored, but a
        family carrying *none* of them is untouched — so a multi-label
        purge (``node=..., tier=...``) prunes ``(node, tier)``-keyed series
        *and* plain ``(node,)``-keyed series, without wiping unrelated
        families wholesale."""
        applicable = {
            label: str(value)
            for label, value in labelvalues.items()
            if label in self.labelnames
        }
        if not applicable:
            return 0
        positions = [
            (self.labelnames.index(label), value)
            for label, value in applicable.items()
        ]
        with self._lock:
            doomed = [
                key
                for key in self._children
                if all(key[pos] == value for pos, value in positions)
            ]
            for key in doomed:
                del self._children[key]
        return len(doomed)

    def _items(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        with self._lock:
            return [
                (tuple(zip(self.labelnames, key)), child)
                for key, child in sorted(self._children.items())
            ]


class CounterChild:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    kind = "counter"

    def _make_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def snapshot(self) -> FamilySnapshot:
        snap = FamilySnapshot(name=self.name, kind=self.kind, help=self.help)
        for labels, child in self._items():
            snap.samples.append(Sample(self.name, labels, child.value))
        return snap


class GaugeChild:
    """A value that can go up and down, or be computed at collect time."""

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        """Read *fn* at every collect instead of the stored value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            return float(self._fn()) if self._fn is not None else self._value


class Gauge(_Family):
    kind = "gauge"

    def _make_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value

    def snapshot(self) -> FamilySnapshot:
        snap = FamilySnapshot(name=self.name, kind=self.kind, help=self.help)
        for labels, child in self._items():
            snap.samples.append(Sample(self.name, labels, child.value))
        return snap


class HistogramChild:
    """Bucketed distribution plus a recent-sample reservoir.

    The cumulative buckets / sum / count are what Prometheus scrapes; the
    bounded reservoir gives exact percentiles over the last *reservoir*
    observations, and ``max`` tracks the whole stream — together covering
    everything the gateway's STATS latency block reports.
    """

    __slots__ = ("_lock", "bounds", "_bucket_counts", "count", "sum", "max",
                 "_recent")

    def __init__(self, bounds: tuple[float, ...], reservoir: int) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +inf bucket last
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._recent: deque[float] = deque(maxlen=reservoir) if reservoir else None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value
            if self._recent is not None:
                self._recent.append(value)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0..100) of the recent window; 0 if empty."""
        with self._lock:
            recent = sorted(self._recent) if self._recent else []
        if not recent:
            return 0.0
        rank = max(0, min(len(recent) - 1,
                          round(p / 100.0 * (len(recent) - 1))))
        return recent[rank]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+inf`` last."""
        with self._lock:
            counts = list(self._bucket_counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir: int = 256,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"duplicate bucket bounds in {buckets!r}")
        self.bounds = bounds
        self.reservoir = reservoir

    def _make_child(self) -> HistogramChild:
        return HistogramChild(self.bounds, self.reservoir)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def snapshot(self) -> FamilySnapshot:
        snap = FamilySnapshot(name=self.name, kind=self.kind, help=self.help)
        for labels, child in self._items():
            for bound, cumulative in child.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else _format_value(bound)
                snap.samples.append(
                    Sample(self.name + "_bucket", labels + (("le", le),),
                           cumulative)
                )
            snap.samples.append(Sample(self.name + "_sum", labels, child.sum))
            snap.samples.append(
                Sample(self.name + "_count", labels, child.count)
            )
        return snap


def _format_value(value: float) -> str:
    """Shortest exact-ish rendering (``0.005`` not ``0.005000``)."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Families by name, get-or-create, plus collect-time callbacks.

    Re-requesting a name returns the existing family; requesting it with a
    different type or label set is an error (it would corrupt the
    exposition).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._callbacks: list[Callable[[], Iterable[FamilySnapshot]]] = []

    # -- family accessors ------------------------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        reservoir: int = 256,
    ) -> Histogram:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                self._check_match(existing, Histogram, name, labelnames)
                return existing  # type: ignore[return-value]
            family = Histogram(name, help, labelnames, buckets=buckets,
                               reservoir=reservoir)
            self._families[name] = family
            return family

    def _get_or_create(self, cls, name: str, help: str, labelnames):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                self._check_match(existing, cls, name, labelnames)
                return existing
            family = cls(name, help, labelnames)
            self._families[name] = family
            return family

    @staticmethod
    def _check_match(existing: _Family, cls, name: str, labelnames) -> None:
        if type(existing) is not cls:
            raise MetricError(
                f"{name!r} already registered as {existing.kind}, "
                f"requested {cls.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise MetricError(
                f"{name!r} already registered with labels "
                f"{existing.labelnames}, requested {tuple(labelnames)}"
            )

    # -- callbacks -------------------------------------------------------------

    def register_callback(
        self, fn: Callable[[], Iterable[FamilySnapshot]]
    ) -> Callable[[], Iterable[FamilySnapshot]]:
        """Run *fn* at every collect; it returns :class:`FamilySnapshot`
        objects for values derived on the fly (cache stats, queue depths).
        Returns *fn* as the unregistration handle."""
        with self._lock:
            self._callbacks.append(fn)
        return fn

    def unregister_callback(self, fn) -> None:
        with self._lock:
            if fn in self._callbacks:
                self._callbacks.remove(fn)

    # -- collection ------------------------------------------------------------

    def collect(self) -> list[FamilySnapshot]:
        """Every family's snapshot plus callback-derived snapshots, sorted
        by name for a stable exposition."""
        with self._lock:
            families = list(self._families.values())
            callbacks = list(self._callbacks)
        snaps = [family.snapshot() for family in families]
        for fn in callbacks:
            snaps.extend(fn())
        return sorted(snaps, key=lambda snap: snap.name)

    def family_total(self, name: str) -> float:
        """Sum of a family's children (histograms sum their observation
        counts); 0.0 if the family does not exist yet.  This is what a
        rolling-window fold samples: the label-agnostic total of a stream,
        without creating families or children as a side effect."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for _labels, child in family._items():
            if isinstance(child, HistogramChild):
                total += child.count
            else:
                total += child.value  # type: ignore[union-attr]
        return total

    def purge_labels(self, **labelvalues: object) -> int:
        """Drop, across every family, all children matching **all** of the
        given ``label=value`` pairs that each family carries; returns the
        number of series removed.

        The topology-change hook: when a node is drained or a group merged
        away, its labelled counters/gauges would otherwise live in the
        exposition forever, growing the scrape output unboundedly across
        scale events.  Per family, only the subset of pairs it carries is
        matched — a ``purge_labels(node="g0.n1", tier="block_cache")``
        prunes ``(node, tier)``-keyed cache series and ``(node,)``-keyed
        durability series alike — and families carrying none of the given
        labels are untouched.  Matching is conjunctive: a multi-pair purge
        never removes a series that differs on any requested label the
        family carries.
        """
        pairs = {label: str(value) for label, value in labelvalues.items()}
        with self._lock:
            families = list(self._families.values())
        return sum(family.purge_matching(pairs) for family in families)

    def value(self, name: str, **labelvalues: object) -> float:
        """Test/debug helper: the current value of one counter/gauge child
        (0.0 if the family or child does not exist yet)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0.0
        try:
            child = family.labels(**labelvalues)
        except MetricError:
            return 0.0
        return child.value  # type: ignore[union-attr]


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry the cluster and gateway share."""
    return _default
