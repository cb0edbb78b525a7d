"""EXPLAIN: structured query plans built from a traced run.

``Mendel.explain(query)`` evaluates the query once with a
:class:`~repro.obs.trace.TraceContext` attached and condenses the run into
a :class:`QueryPlan` — the introspection surface behind the paper's
attrition arguments (Figures 6a-6d all hinge on *where candidates die*):

* **routing** — the subquery windows, the tier-1 route each window takes,
  and the groups/nodes the query fanned out to.  A route's ``path`` says
  what decided it: the part-key directory (``parts``: the groups placing a
  block equal to the window on a pigeonhole part), or the vp-prefix walk
  (``walk``, including tolerance-induced replication branches), whose
  prefixes are the prefix-tree vertices where it stopped: a frontier
  prefix, or an ancestor whose frontier prefixes one group owns;
* **funnel** — the per-stage candidate attrition (k-NN candidates ->
  percent-identity filter -> c-score filter -> extension -> merged anchors
  -> gapped extensions -> reported alignments), with counts from
  :meth:`~repro.core.query.QueryStats.funnel` and sim-clock timings from
  the span tree;
* **stage timings** — the pipeline stages (receive, route, fanout, gapped,
  reply) that tile the simulated turnaround;
* **node searches** — which search served each node: its part keys
  (``parts``) or its vp-tree (``vptree``), so a regression names its path.

The same plan is what the serving gateway's ``EXPLAIN`` verb returns
(:meth:`QueryPlan.to_dict`) and what ``repro explain`` renders
(:meth:`QueryPlan.render`).  Stage counts reconcile exactly with the
``repro_query_funnel_total{stage}`` counters bumped by the engine and with
the span tree of the same run — tested in ``tests/core/test_explain.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.query import FUNNEL_STAGES, QueryReport, WindowRoute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import MendelIndex
    from repro.core.params import QueryParams
    from repro.core.query import QueryEngine
    from repro.seq.records import SequenceRecord


@dataclass(frozen=True)
class FunnelStage:
    """One attrition stage: its survivor count and drop from the previous."""

    stage: str
    count: int
    #: survivors of the previous stage that died here
    dropped: int
    #: fraction of the previous stage's count that survived (1.0 for the
    #: first stage and whenever the previous stage was empty)
    retained: float
    #: sim-clock duration of the pipeline span this stage executes inside
    #: (the fanout span for node-side stages, the gapped span for the final
    #: extension/report stages); stages sharing a span share the timing
    sim_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "count": self.count,
            "dropped": self.dropped,
            "retained": round(self.retained, 6),
            "sim_ms": round(self.sim_ms, 6),
        }


@dataclass
class QueryPlan:
    """Everything EXPLAIN reports about one traced query execution."""

    query_id: str
    residues: int
    trace_id: str | None
    entry_node: str | None
    window_length: int
    stride: int
    tolerance: float
    replication: int
    routes: Sequence[WindowRoute]
    groups_contacted: list[str]
    nodes_fanned_out: list[str]
    subqueries_routed: int
    funnel: list[FunnelStage]
    #: ``(stage name, sim-clock ms)`` for the top-level pipeline spans,
    #: in execution order; they tile the turnaround
    stage_timings: list[tuple[str, float]] = field(default_factory=list)
    turnaround_ms: float = 0.0
    coverage: float = 1.0
    degraded: bool = False
    failed_nodes: list[str] = field(default_factory=list)
    #: node id -> the search that served it, ``"parts"`` or ``"vptree"``
    node_searches: dict[str, str] = field(default_factory=dict)
    #: the underlying traced report (alignments, stats, root span)
    report: QueryReport | None = None

    # -- derived ---------------------------------------------------------------

    @property
    def windows(self) -> int:
        return len(self.routes)

    @property
    def replicated_windows(self) -> int:
        return sum(1 for route in self.routes if route.replicated)

    def stage(self, name: str) -> FunnelStage:
        for item in self.funnel:
            if item.stage == name:
                return item
        raise KeyError(f"no funnel stage {name!r}")

    def is_monotone(self) -> bool:
        """True when every funnel stage's count is <= the previous one's —
        the invariant an attrition funnel must satisfy."""
        counts = [item.count for item in self.funnel]
        return all(b <= a for a, b in zip(counts, counts[1:]))

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly plan (what the serve EXPLAIN verb returns)."""
        return {
            "query_id": self.query_id,
            "residues": self.residues,
            "trace_id": self.trace_id,
            "entry_node": self.entry_node,
            "window_length": self.window_length,
            "stride": self.stride,
            "tolerance": self.tolerance,
            "replication": self.replication,
            "windows": self.windows,
            "replicated_windows": self.replicated_windows,
            "subqueries_routed": self.subqueries_routed,
            "groups_contacted": list(self.groups_contacted),
            "nodes_fanned_out": list(self.nodes_fanned_out),
            "node_searches": dict(self.node_searches),
            "routes": [route.to_dict() for route in self.routes],
            "funnel": [item.to_dict() for item in self.funnel],
            "stage_timings": [
                {"stage": name, "sim_ms": round(ms, 6)}
                for name, ms in self.stage_timings
            ],
            "turnaround_ms": round(self.turnaround_ms, 6),
            "coverage": self.coverage,
            "degraded": self.degraded,
            "failed_nodes": list(self.failed_nodes),
        }

    # -- rendering -------------------------------------------------------------

    def render_funnel(self, width: int = 28) -> str:
        """The attrition funnel as an aligned table with survivor bars."""
        top = max((item.count for item in self.funnel), default=0)
        lines = [
            f"{'stage':<18} {'count':>8} {'dropped':>8} {'retained':>9} "
            f"{'sim ms':>10}  survivors"
        ]
        lines.append("-" * len(lines[0]))
        for item in self.funnel:
            bar = "#" * (
                int(round(width * item.count / top)) if top else 0
            )
            lines.append(
                f"{item.stage:<18} {item.count:>8d} {item.dropped:>8d} "
                f"{item.retained:>8.1%} {item.sim_ms:>10.3f}  {bar}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Full human-readable plan: routing summary, funnel, timings."""
        lines = [
            f"EXPLAIN {self.query_id} ({self.residues} residues)"
            + (f" [{self.trace_id}]" if self.trace_id else ""),
            f"  entry point     : {self.entry_node or '-'}",
            f"  windows         : {self.windows} x {self.window_length} "
            f"residues, stride {self.stride}",
            f"  tier-1 routing  : {self.subqueries_routed} subqueries -> "
            f"{len(self.groups_contacted)} group(s) ({self.replicated_windows} "
            + ("window(s) to >1 group by part keys)"
               if any(route.path == "parts" for route in self.routes)
               else f"window(s) branched by tolerance {self.tolerance:.3g})"),
            f"  fan-out         : {len(self.nodes_fanned_out)} node(s), "
            f"replication {self.replication}",
            "  node searches   : " + (" ".join(
                f"{node}={how}" for node, how in self.node_searches.items()) or "-"),
        ]
        if self.degraded or self.failed_nodes:
            lines.append(
                f"  degraded        : coverage {self.coverage:.1%}, "
                f"failed nodes: {', '.join(self.failed_nodes) or '-'}"
            )
        lines.append("")
        lines.append(self.render_funnel())
        lines.append("")
        lines.append("stage timings (sim clock):")
        for name, ms in self.stage_timings:
            lines.append(f"  {name:<18} {ms:>10.3f} ms")
        lines.append(f"  {'turnaround':<18} {self.turnaround_ms:>10.3f} ms")
        return "\n".join(lines)


def build_funnel(report: QueryReport, stage_ms: dict[str, float] | None = None) -> list[FunnelStage]:
    """The attrition funnel of one report, with per-stage drop accounting.

    *stage_ms* maps funnel stage names to the sim-clock duration of the
    pipeline span they execute inside (see :func:`build_plan`).
    """
    stage_ms = stage_ms or {}
    funnel: list[FunnelStage] = []
    previous: int | None = None
    for stage, count in report.stats.funnel():
        dropped = max(0, previous - count) if previous is not None else 0
        retained = (
            1.0 if previous in (None, 0) else count / previous
        )
        funnel.append(
            FunnelStage(
                stage=stage,
                count=count,
                dropped=dropped,
                retained=retained,
                sim_ms=stage_ms.get(stage, 0.0),
            )
        )
        previous = count
    return funnel


def build_plan(
    index: "MendelIndex",
    engine: "QueryEngine",
    record: "SequenceRecord",
    params: "QueryParams",
    report: QueryReport,
) -> QueryPlan:
    """Condense a traced *report* into a plan.

    Routing (window -> prefixes -> groups) is the run's own record,
    ``report.routes``; fan-out nodes, stage timings, and the entry point
    are read off the report's span tree.
    """
    routes = report.routes
    # Groups in the order the windows first reached them.
    group_order = list(dict.fromkeys(
        group_id for route in routes for group_id in route.groups
    ))

    # Read execution facts off the span tree.
    root = report.root_span
    entry_node: str | None = None
    nodes: list[str] = []
    searches: dict[str, str] = {}
    stage_timings: list[tuple[str, float]] = []
    fanout_ms = gapped_ms = 0.0
    if root is not None:
        entry_node = root.attrs.get("entry")
        for span in root.children:
            stage_timings.append((span.name, span.sim_duration * 1e3))
            if span.name == "fanout":
                fanout_ms = span.sim_duration * 1e3
            elif span.name == "gapped":
                gapped_ms = span.sim_duration * 1e3
        for span in root.walk():
            if span.name.startswith("node:"):
                node_id = span.name.split(":", 1)[1]
                if node_id not in nodes:
                    nodes.append(node_id)
                if "search" in span.attrs:
                    searches[node_id] = span.attrs["search"]

    stage_ms = {stage: fanout_ms for stage, _field in FUNNEL_STAGES}
    stage_ms["gapped_extensions"] = gapped_ms
    stage_ms["alignments"] = gapped_ms

    return QueryPlan(
        query_id=record.seq_id,
        residues=len(record),
        trace_id=report.trace_id,
        entry_node=entry_node,
        window_length=index.segment_length,
        stride=params.k,
        tolerance=engine.tolerance(params),
        replication=index.config.replication,
        routes=routes,
        groups_contacted=group_order,
        nodes_fanned_out=sorted(nodes),
        subqueries_routed=sum(len(route.groups) for route in routes),
        funnel=build_funnel(report, stage_ms),
        stage_timings=stage_timings,
        turnaround_ms=report.stats.turnaround * 1e3,
        coverage=report.coverage,
        degraded=report.degraded,
        failed_nodes=list(report.failed_nodes),
        node_searches=dict(sorted(searches.items())),
        report=report,
    )
