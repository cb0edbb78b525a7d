"""Trace analytics: span-shape fingerprints and critical-path profiling.

Three PRs of telemetry (span trees, funnel counters, the slow-query log)
record *what happened*; this module turns those records into *answers*:

* :func:`trace_fingerprint` canonicalizes one span tree into a shape
  signature — the ordered top-level stage names, fan-out bucketed into
  coarse bands (so "7 nodes" and "6 nodes" land in one family while "1
  node" and "30 nodes" do not), the dominant stage by sim-clock time, and
  the degraded / hedged / cold-read / failed annotations.  Two queries
  with the same fingerprint took the same *kind* of path through the
  cluster, whatever their residues were.
* :func:`query_entry` is the one per-query record the slow-query log and
  ``repro explore`` keep (ids, turnaround, coverage, funnel, fingerprint,
  critical path);
* :func:`cluster_slow_queries` groups slow-log entries by fingerprint
  signature into named **families** with exemplar trace ids — the unit
  the paper's Fig. 6 slow tail decomposes into.
* :func:`critical_path` walks the longest sim-clock chain of a span tree
  and attributes **self-time vs child-time** per span along it;
  :func:`critical_path_table` aggregates paths into a flamegraph-style
  per-stage table whose self-times tile turnaround *exactly* (the PR 4
  stage-span tiling invariant, extended below the stage level).

Everything here is pure and deterministic: same span trees in, byte-equal
tables out — the property the ``repro explore`` REPORT.md and the
CHAOS_SEED determinism tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.profile import stage_of
from repro.obs.trace import Span

if TYPE_CHECKING:
    from repro.core.query import QueryReport

#: slack when deciding whether a child's interval abuts the running chain —
#: sim stamps are exact rationals of float arithmetic, but summed charges
#: can disagree in the last ulp.
_EPS = 1e-12

#: fan-out bands: coarse enough that jitter does not split families, fine
#: enough that "one node" and "the whole cluster" never merge.
_BUCKETS = ((0, "0"), (1, "1"), (3, "2-3"), (7, "4-7"))


def fanout_bucket(count: int) -> str:
    """Bucket a fan-out count into the band label used by fingerprints."""
    for upper, label in _BUCKETS:
        if count <= upper:
            return label
    return "8+"


@dataclass(frozen=True)
class TraceFingerprint:
    """The canonical shape of one query's span tree.

    Hashable and order-stable: equal fingerprints mean "same family".
    """

    #: ordered names of the root's direct children (the pipeline stages)
    stages: tuple[str, ...]
    #: bucketed count of ``group:*`` spans contacted
    groups: str
    #: bucketed count of ``node:*`` spans (subqueries, retries included)
    nodes: str
    #: top-level stage holding the most sim-clock time
    dominant: str
    degraded: bool
    hedged: bool
    cold_read: bool
    failed: bool

    @property
    def signature(self) -> str:
        """Canonical one-line form; the clustering key."""
        flags = ",".join(self.flags) or "-"
        return (
            f"{'>'.join(self.stages)}|groups={self.groups}"
            f"|nodes={self.nodes}|dom={self.dominant}|flags={flags}"
        )

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.degraded:
            out.append("degraded")
        if self.hedged:
            out.append("hedged")
        if self.cold_read:
            out.append("cold-read")
        if self.failed:
            out.append("failed-node")
        return tuple(out)

    @property
    def family(self) -> str:
        """Human-readable family name (``fanout-dominant/degraded+hedged``)."""
        name = f"{self.dominant or 'empty'}-dominant"
        if self.flags:
            name += "/" + "+".join(self.flags)
        return name

    def to_dict(self) -> dict:
        return {
            "stages": list(self.stages),
            "groups": self.groups,
            "nodes": self.nodes,
            "dominant": self.dominant,
            "degraded": self.degraded,
            "hedged": self.hedged,
            "cold_read": self.cold_read,
            "failed": self.failed,
            "signature": self.signature,
            "family": self.family,
        }


def trace_fingerprint(root: Span) -> TraceFingerprint:
    """Canonicalize the span tree under *root* into a :class:`TraceFingerprint`.

    Pure shape extraction — no wall-clock fields are read, so a fingerprint
    is byte-stable across reruns of the same CHAOS_SEED scenario.
    """
    stages = tuple(child.name for child in root.children)
    groups = 0
    nodes = 0
    cold = False
    failed = bool(root.attrs.get("failed_nodes"))
    hedged = bool(root.attrs.get("hedged_retries"))
    for span in root.walk():
        if span.name.startswith("group:"):
            groups += 1
        elif span.name.startswith("node:"):
            nodes += 1
            if span.attrs.get("failed") is not None:
                failed = True
            if span.attrs.get("hedged_retry"):
                hedged = True
        elif span.name == "cold_read":
            cold = True
    dominant = ""
    best = -math.inf
    for child in root.children:
        if child.sim_duration > best:
            best = child.sim_duration
            dominant = child.name
    return TraceFingerprint(
        stages=stages,
        groups=fanout_bucket(groups),
        nodes=fanout_bucket(nodes),
        dominant=dominant,
        degraded=bool(root.attrs.get("degraded")),
        hedged=hedged,
        cold_read=cold,
        failed=failed,
    )


# -- critical path ---------------------------------------------------------------


def _chain(span: Span) -> list[Span]:
    """The children of *span* on its critical path, in execution order.

    Selected backwards from the latest sim-clock finisher: repeatedly take
    the child whose interval ends latest but no later than the start of the
    chain built so far.  Parallel siblings that overlap the chosen chain
    are excluded — their time is covered by the chain, not additional to it.
    """
    timed = [
        child
        for child in span.children
        if child.sim_start is not None and child.sim_end is not None
    ]
    timed.sort(key=lambda c: (c.sim_end, c.sim_start, c.span_id), reverse=True)
    chain: list[Span] = []
    bound: float | None = None
    for child in timed:
        if bound is None or child.sim_end <= bound + _EPS:
            chain.append(child)
            bound = child.sim_start
    chain.reverse()
    return chain


def critical_path(root: Span) -> list[dict]:
    """The longest sim-clock chain through the tree under *root*.

    Returns one step per span on the path (depth-first), each with its
    total sim time and its **self-time**: total minus the time covered by
    its own on-path children.  Self-times are deliberately *not* clamped
    at zero — they telescope, so summed over the whole path they equal the
    root's sim duration exactly (the tiling invariant the ANALYZE verb is
    tested against).
    """
    steps: list[dict] = []

    def visit(span: Span, depth: int) -> None:
        chain = _chain(span)
        covered = math.fsum(child.sim_duration for child in chain)
        steps.append(
            {
                "name": span.name,
                "stage": stage_of(span.name),
                "depth": depth,
                "total_ms": span.sim_duration * 1e3,
                "self_ms": (span.sim_duration - covered) * 1e3,
            }
        )
        for child in chain:
            visit(child, depth + 1)

    visit(root, 0)
    return steps


def critical_path_table(roots: Iterable[Span]) -> list[dict]:
    """Flamegraph-style aggregation of the critical paths of *roots*.

    One row per stage label with summed self/total sim-milliseconds, the
    number of path steps that hit the stage, and the stage's share of all
    self-time.  Rows sort by self-time descending (ties by stage name) —
    the top row names where turnaround actually goes.
    """
    rows: dict[str, dict] = {}
    for root in roots:
        for step in critical_path(root):
            row = rows.setdefault(
                step["stage"],
                {"stage": step["stage"], "self_ms": 0.0,
                 "total_ms": 0.0, "count": 0},
            )
            row["self_ms"] += step["self_ms"]
            row["total_ms"] += step["total_ms"]
            row["count"] += 1
    return _finish_table(rows)


def merge_critical_tables(tables: Iterable[Sequence[dict]]) -> list[dict]:
    """Merge per-entry / per-cell critical-path tables into one.

    Accepts the JSON-shaped rows :func:`critical_path_table` emits (the
    form slow-log entries and explore cells store), so aggregation works
    on entries that crossed the wire without re-walking any span tree.
    """
    rows: dict[str, dict] = {}
    for table in tables:
        for incoming in table:
            row = rows.setdefault(
                incoming["stage"],
                {"stage": incoming["stage"], "self_ms": 0.0,
                 "total_ms": 0.0, "count": 0},
            )
            row["self_ms"] += incoming["self_ms"]
            row["total_ms"] += incoming["total_ms"]
            row["count"] += int(incoming["count"])
    return _finish_table(rows)


def _finish_table(rows: dict[str, dict]) -> list[dict]:
    total_self = math.fsum(row["self_ms"] for row in rows.values())
    out = sorted(
        rows.values(), key=lambda row: (-row["self_ms"], row["stage"])
    )
    for row in out:
        row["share"] = row["self_ms"] / total_self if total_self else 0.0
    return out


# -- slow-query clustering -------------------------------------------------------


def query_entry(report: "QueryReport") -> dict:
    """One answered query as the slow-query log and ``repro explore`` keep it.

    Ids, sim turnaround, coverage, the reconciled EXPLAIN attrition funnel,
    the trace fingerprint and family, and the query's own critical-path
    table — all JSON-shaped, so families stay joinable to query plans
    without re-running anything.
    """
    from repro.core.explain import build_funnel  # core imports obs

    root = report.root_span
    fingerprint = trace_fingerprint(root) if root is not None else None
    return {
        "query_id": report.query_id,
        "trace_id": report.trace_id,
        "turnaround_ms": round(report.stats.turnaround * 1e3, 3),
        "coverage": report.coverage,
        "degraded": report.degraded,
        "funnel": [stage.to_dict() for stage in build_funnel(report)],
        "fingerprint": (
            fingerprint.to_dict() if fingerprint is not None else None
        ),
        "family": (
            fingerprint.family if fingerprint is not None else "untraced"
        ),
        "critical_path": (
            critical_path_table([root]) if root is not None else []
        ),
    }


def cluster_slow_queries(
    entries: Iterable[dict], exemplars: int = 3
) -> list[dict]:
    """Group slow-log *entries* into trace families.

    Each entry is a slow-log dict carrying a ``fingerprint`` (the
    :meth:`TraceFingerprint.to_dict` form), ``trace_id`` and
    ``turnaround_ms``; entries without a fingerprint (tracing off) are
    collected under the ``"untraced"`` signature.  Families sort by count
    descending, then mean turnaround descending, then signature — a total
    deterministic order.
    """
    groups: dict[str, dict] = {}
    for entry in entries:
        fp = entry.get("fingerprint")
        if fp:
            signature = fp["signature"]
            family = fp["family"]
            dominant = fp["dominant"]
            flags = [
                flag
                for flag, on in (
                    ("degraded", fp.get("degraded")),
                    ("hedged", fp.get("hedged")),
                    ("cold-read", fp.get("cold_read")),
                    ("failed-node", fp.get("failed")),
                )
                if on
            ]
        else:
            signature, family, dominant, flags = "untraced", "untraced", "", []
        group = groups.setdefault(
            signature,
            {
                "family": family,
                "signature": signature,
                "dominant_stage": dominant,
                "flags": flags,
                "count": 0,
                "exemplar_trace_ids": [],
                "turnarounds": [],
            },
        )
        group["count"] += 1
        trace_id = entry.get("trace_id")
        if trace_id and len(group["exemplar_trace_ids"]) < exemplars:
            group["exemplar_trace_ids"].append(trace_id)
        group["turnarounds"].append(float(entry.get("turnaround_ms") or 0.0))
    total = sum(group["count"] for group in groups.values())
    families = []
    for group in groups.values():
        turnarounds = group.pop("turnarounds")
        group["mean_turnaround_ms"] = round(
            math.fsum(turnarounds) / len(turnarounds), 3
        )
        group["max_turnaround_ms"] = round(max(turnarounds), 3)
        group["share"] = group["count"] / total if total else 0.0
        families.append(group)
    families.sort(
        key=lambda g: (-g["count"], -g["mean_turnaround_ms"], g["signature"])
    )
    return families
