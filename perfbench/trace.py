"""Timing wrappers installed from outside ``repro``, and the spans they keep.

The traced run patches ``repro``'s public entry points at the name where the
caller looks them up (a module global such as
``repro.core.query.banded_extend``, or a method on its class), records spans
in memory and derives each layer's *self time*: a span's duration minus the
part of it its child spans cover.

Two kinds of span:

* a **plain** span is one call — name, start, end, parent, query id;
* an **aggregate** span stands for every call of one function under one
  parent — call count and summed duration — because functions called a
  thousand times a query would otherwise spend more time being recorded
  than running.

Spans only exist beneath a root the benchmark opens (``Tracer.span``), so
calls made outside any root — warm-ups, reference sweeps — cost two attribute
loads and are not recorded.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "phase", "aggregate",
                 "count", "busy", "children", "aggregates")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 qid: str | None, phase: str, aggregate: bool) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.phase = phase
        self.aggregate = aggregate
        #: calls folded into this span (1 for a plain span)
        self.count = 0 if aggregate else 1
        #: summed call time; for a plain span, its duration
        self.busy = 0.0
        self.children: list[Span] = []
        #: name -> the aggregate child of that name
        self.aggregates: dict[str, Span] | None = None

    @property
    def self_time(self) -> float:
        return self.busy - sum(child.busy for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def wrap_points() -> list[tuple[object, str, str, bool]]:
    """``(owner, attribute, span name, aggregate)`` for every entry point the
    traced run times.  Imported lazily so this module loads without repro."""
    import repro.core.query as query
    from repro.cluster.group import StorageGroup
    from repro.cluster.node import StorageNode
    from repro.core.blocks import BlockStore
    from repro.core.index import MendelIndex
    from repro.store.durable import DurableNodeState
    from repro.vptree.prefix import VPPrefixTree
    from repro.vptree.tree import VPTree

    return [
        (query.QueryEngine, "run_batch", "core.run_batch", False),
        (query, "evaluate_candidate", "core.evaluate_candidate", True),
        (query, "extend_anchor", "core.extend_anchor", True),
        (query, "merge_anchors", "core.merge_anchors", True),
        (query, "banded_extend", "align.banded_extend", True),
        (StorageNode, "local_knn", "cluster.local_knn", True),
        (StorageNode, "store_blocks", "cluster.store_blocks", True),
        (StorageNode, "recover", "store.node_recover", True),
        (StorageGroup, "place_replicas", "cluster.place_replicas", True),
        (VPTree, "knn", "vptree.knn", True),
        (VPPrefixTree, "hash_query", "vptree.hash_query", True),
        (MendelIndex, "__init__", "core.index_build", False),
        (BlockStore, "__init__", "core.blockstore", False),
        (DurableNodeState, "append_insert", "store.wal_append", True),
    ]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        #: stamped on every span opened from now on
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, qid: str | None = None):
        """Open a plain span; with an empty stack it becomes a root."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, perf_counter(), parent,
                    qid if qid is not None else (parent.qid if parent else None),
                    self.phase, aggregate=False)
        if parent is None:
            with self._lock:
                self.roots.append(span)
        else:
            parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start

    def _plain(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack():
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _aggregate(self, fn, name: str):
        stack_of = self._stack
        phase_of = self

        def traced(*args, **kwargs):
            stack = stack_of()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            table = parent.aggregates
            if table is None:
                table = parent.aggregates = {}
            span = table.get(name)
            start = perf_counter()
            if span is None:
                span = table[name] = Span(name, start, parent, parent.qid,
                                          phase_of.phase, aggregate=True)
                parent.children.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
                span.count += 1
                span.busy += span.end - start

        traced.__wrapped__ = fn
        return traced

    def wrap(self, fn, name: str, aggregate: bool = False):
        return self._aggregate(fn, name) if aggregate else self._plain(fn, name)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        for owner, attr, name, aggregate in wrap_points():
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, aggregate))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------------

    def spans(self, name: str | None = None, phase: str | None = None):
        for root in self.roots:
            for span in root.walk():
                if (name is None or span.name == name) and (
                    phase is None or span.phase == phase
                ):
                    yield span

    def total(
        self, name: str, phase: str | None = None, speed: float = 1.0
    ) -> tuple[int, float, float]:
        """``(calls, summed busy seconds, summed self seconds)`` of *name*;
        *speed* brings the seconds to reference speed (perfbench.calibrate)."""
        count, busy, own = 0, 0.0, 0.0
        for span in self.spans(name, phase):
            count += span.count
            busy += span.busy
            own += span.self_time
        return count, busy / speed, own / speed

    def to_rows(self) -> list[dict]:
        """Flat span table (parents by row index) for ``trace_<workload>.json``."""
        rows: list[dict] = []
        index: dict[int, int] = {}
        for root in self.roots:
            for span in root.walk():
                index[id(span)] = len(rows)
                rows.append({
                    "id": len(rows),
                    "parent": index[id(span.parent)] if span.parent else None,
                    "name": span.name,
                    "phase": span.phase,
                    "qid": span.qid,
                    "start": span.start,
                    "end": span.end,
                    "calls": span.count,
                    "busy_s": span.busy,
                    "self_s": span.self_time,
                    "aggregate": span.aggregate,
                })
        return rows


def check_nesting(tracer: Tracer, tolerance: float = 0.01) -> list[str]:
    """Problems with the span forest: a child outside its parent, a negative
    self time, or self times that do not add up to their root."""
    problems = []
    slack = 1e-6
    for root in tracer.roots:
        own = 0.0
        for span in root.walk():
            own += span.self_time
            if span.self_time < -slack:
                problems.append(f"{span.name}: self time {span.self_time:.6f}s < 0")
            parent = span.parent
            if parent is not None and (
                span.start < parent.start - slack or span.end > parent.end + slack
            ):
                problems.append(f"{span.name}: not inside parent {parent.name}")
        if abs(own - root.busy) > tolerance * max(root.busy, slack):
            problems.append(
                f"{root.name}: self times sum to {own:.6f}s, root is {root.busy:.6f}s"
            )
    return problems
