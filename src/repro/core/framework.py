"""The Mendel facade: the library's primary public entry point.

Typical use::

    from repro import Mendel, MendelConfig, QueryParams
    from repro.seq import read_fasta

    db = read_fasta("references.fasta", "protein")
    mendel = Mendel.build(db, MendelConfig(group_count=4, group_size=3))
    report = mendel.query_text("MKV...WLA", params=QueryParams(n=8, c=0.5))
    for alignment in report.alignments:
        print(alignment.brief())

``build`` runs the full indexing pipeline (blocks -> vp-prefix dispersion ->
local vp-trees); ``query``/``query_text``/``query_many`` evaluate alignment
searches over the simulated cluster and report ranked alignments with
turnaround statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.index import IndexStats, MendelIndex
from repro.core.params import MendelConfig, QueryParams
from repro.core.query import BatchReports, QueryEngine, QueryReport, QueryStats
from repro.seq.records import SequenceRecord, SequenceSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.balance import BalanceAuditor, BalanceReport
    from repro.core.explain import QueryPlan
    from repro.faults.schedule import FaultSchedule
    from repro.obs.health import HealthMonitor
    from repro.obs.trace import TraceContext
    from repro.serve.service import QueryService


@dataclass
class Mendel:
    """A built Mendel deployment bound to one reference database."""

    index: MendelIndex
    engine: QueryEngine

    @classmethod
    def build(cls, database: SequenceSet, config: MendelConfig | None = None) -> "Mendel":
        """Index *database* on a simulated cluster shaped by *config*."""
        index = MendelIndex(database, config or MendelConfig())
        return cls(index=index, engine=QueryEngine(index))

    # -- queries -------------------------------------------------------------

    def query(
        self,
        record: SequenceRecord,
        params: QueryParams | None = None,
        faults: "FaultSchedule | None" = None,
        subquery_deadline: float | None = None,
        trace_ctx: "TraceContext | None" = None,
    ) -> QueryReport:
        """Similarity-search *record* against the indexed database.

        *faults* attaches a scripted chaos schedule to the run;
        *subquery_deadline* bounds each node subquery (simulated seconds)
        with one hedged retry before the report degrades; *trace_ctx*
        records a span tree of the run (``report.root_span``).  See
        :meth:`~repro.core.query.QueryEngine.run_batch`.
        """
        return self.engine.run(
            record, params, faults=faults, subquery_deadline=subquery_deadline,
            trace_ctx=trace_ctx,
        )

    def query_text(
        self,
        text: str,
        params: QueryParams | None = None,
        query_id: str = "query",
    ) -> QueryReport:
        """Convenience: encode *text* under the database alphabet and query."""
        record = SequenceRecord.from_text(query_id, text, self.index.alphabet)
        return self.query(record, params)

    def query_many(
        self,
        records: SequenceSet | list[SequenceRecord],
        params: QueryParams | None = None,
        trace_contexts: "list[TraceContext] | None" = None,
    ) -> list[QueryReport]:
        """Evaluate a whole query set; one report per query, in order.

        *trace_contexts* (one per record) attaches a span tree to each
        report — what the serving gateway uses for per-request tracing.
        """
        if trace_contexts is None:
            return [self.query(record, params) for record in records]
        if len(trace_contexts) != len(records):
            raise ValueError(
                f"{len(trace_contexts)} trace contexts for "
                f"{len(records)} records"
            )
        return [
            self.query(record, params, trace_ctx=ctx)
            for record, ctx in zip(records, trace_contexts)
        ]

    def query_under_faults(
        self,
        records: SequenceSet | list[SequenceRecord],
        faults: "FaultSchedule",
        params: QueryParams | None = None,
        arrival_interval: float = 0.0,
        subquery_deadline: float | None = None,
        trace_contexts: "list[TraceContext] | None" = None,
        monitor: "HealthMonitor | None" = None,
    ) -> BatchReports:
        """Evaluate *records* concurrently on one clock while *faults*
        plays out — the chaos-experiment entry point.

        Queries arrive ``arrival_interval`` apart so the batch spans the
        scripted failures; reports carry ``coverage`` / ``degraded`` /
        ``failed_nodes``.  The run mutates the live cluster (crashes,
        repair streams); the returned batch's ``chaos`` holds the timeline,
        and :meth:`repair` / :meth:`recover_node` restore a clean state.

        A :class:`~repro.obs.health.HealthMonitor` is attached to the run
        (auto-created and horizon-scaled unless *monitor* is given): the
        batch's ``monitor`` holds the SLI windows, the SLO alert
        transitions, and the correlated event log —
        :meth:`health_report` packages it all.
        """
        return self.engine.run_batch(
            list(records),
            params,
            arrival_interval=arrival_interval,
            faults=faults,
            subquery_deadline=subquery_deadline,
            trace_contexts=trace_contexts,
            monitor=monitor,
        )

    def query_translated(
        self, record: SequenceRecord, params: QueryParams | None = None
    ) -> QueryReport:
        """BLASTX-style translated search: a DNA *record* against a protein
        index, querying all six reading frames and merging the reports.

        The returned report's alignments carry the frame in their query id
        suffix (``|frame+0`` .. ``|frame-2``) with coordinates in translated
        (amino-acid) space.  The six frames are dispatched *concurrently*
        (one client, six in-flight subqueries contending for the cluster),
        so the merged turnaround is the completion time of the slowest
        frame; the other counters sum across frames.
        """
        from repro.seq.translate import six_frame_translations

        if self.index.alphabet.name != "protein":
            raise ValueError("translated search needs a protein index")
        if record.alphabet.name != "dna":
            raise ValueError("translated search needs a DNA query")
        minimum = self.index.segment_length
        frames = [
            frame
            for frame in six_frame_translations(record)
            if len(frame) >= minimum
        ]
        if not frames:
            raise ValueError(
                f"query too short: no frame reaches the indexed segment "
                f"length {minimum}"
            )
        reports = self.engine.run_batch(frames, params)
        merged_alignments = [a for r in reports for a in r.alignments]
        merged_alignments.sort(key=lambda a: (a.evalue, -a.score))
        stats = QueryStats.merged([r.stats for r in reports])
        return QueryReport(
            query_id=record.seq_id, alignments=merged_alignments, stats=stats
        )

    # -- growth & introspection ------------------------------------------------

    def explain(
        self,
        record: SequenceRecord,
        params: QueryParams | None = None,
    ) -> "QueryPlan":
        """EXPLAIN: run *record* once with tracing attached and return the
        structured :class:`~repro.core.explain.QueryPlan` — subquery
        windows, vp-prefix routes (with tolerance replication branches),
        the group/node fan-out, the per-stage attrition funnel, and the
        sim-clock stage timings.

        The query really executes (the plan reflects an actual cluster
        run, and the funnel counters in the default registry are bumped);
        ``plan.report`` carries the full traced report.
        """
        from repro.core.explain import build_plan
        from repro.obs.trace import TraceContext

        params = params or QueryParams()
        report = self.query(record, params, trace_ctx=TraceContext())
        return build_plan(self.index, self.engine, record, params, report)

    def balance(self) -> "BalanceReport":
        """Audit block distribution over both placement tiers (Fig. 5):
        per-node / per-group primary counts with CV and Gini, and tier-1
        prefix-route skew.  Cached against :attr:`index_version`."""
        return self._balance_auditor().report()

    def _balance_auditor(self) -> "BalanceAuditor":
        auditor = getattr(self, "_balance_auditor_instance", None)
        if auditor is None:
            from repro.cluster.balance import BalanceAuditor

            auditor = BalanceAuditor(self.index)
            self._balance_auditor_instance = auditor
        return auditor

    def insert(self, new_sequences: SequenceSet) -> None:
        """Incrementally index additional reference sequences.

        Bumps :attr:`index_version`, so serving caches built over this
        deployment invalidate their entries (cache coherence)."""
        self.index.insert_sequences(new_sequences)

    def add_node(self, group_id: str):
        """Elastically grow *group_id* by one node (data redistributes
        within the group only); returns the new node."""
        change = self.index.expand_group(group_id)
        return self.index.topology.group(group_id).node(change.target)

    def remove_node(self, node_id: str):
        """Safely drain and remove one node (refused if the group would
        drop below the replication factor); returns the node."""
        return self.index.remove_node(node_id)

    def split_group(self, group_id: str):
        """Split an overloaded group: half its tier-1 region moves to a
        brand-new group (refining the vp-prefix frontier when the group
        owns a single prefix); returns the settled
        :class:`~repro.core.index.TopologyChange`."""
        return self.index.split_group(group_id)

    def merge_groups(self, source_id: str, target_id: str):
        """Merge an underloaded group into another and retire it; returns
        the settled :class:`~repro.core.index.TopologyChange`."""
        return self.index.merge_groups(source_id, target_id)

    # -- failure handling ------------------------------------------------------

    def fail_node(self, node_id: str, rereplicate: bool = False):
        """Crash-stop one node (optionally re-replicating its blocks
        immediately); returns the node."""
        return self.index.fail_node(node_id, rereplicate=rereplicate)

    def recover_node(self, node_id: str):
        """Rejoin a crashed node and reconcile its group back to canonical
        placement (exactly ``replication`` holders per block)."""
        return self.index.recover_node(node_id)

    def repair(self, group_id: str | None = None):
        """Reconcile placement against ground-truth liveness (one group or
        all); returns the :class:`~repro.faults.repair.RepairReport`."""
        return self.index.rereplicate(group_id)

    # -- durability and integrity ----------------------------------------------

    def scrub(self, heal: bool = True):
        """One anti-entropy pass over every replica copy: digest-verify,
        quarantine what rotted, and (by default) heal it back from verified
        replicas.  Bumps :attr:`index_version` only when a copy was
        quarantined.  Returns the :class:`~repro.store.scrub.ScrubReport`."""
        return self.index.scrub(heal=heal)

    def flush_durable(self) -> int:
        """Checkpoint every node's WAL into its snapshot; returns the
        number of nodes that acknowledged."""
        return self.index.flush_durable()

    def durability(self) -> dict:
        """Per-node durable-state status (snapshot + WAL depth, unacked
        writes, degraded flags) plus cluster rollups."""
        return self.index.durability_report()

    def spill(self, cache_bytes: int | None = None, config=None):
        """Spill the deployment to the disk tier (see
        :meth:`~repro.core.index.MendelIndex.spill_to_tier`): block codes
        move to per-node compressed block files, queries read through a
        bounded shared RAM cache, and results stay byte-identical to the
        all-RAM deployment.  Returns the shared block cache."""
        return self.index.spill_to_tier(cache_bytes=cache_bytes, config=config)

    def unspill(self) -> None:
        """Fold every node back to all-RAM and drop the tier policy."""
        self.index.unspill_tier()

    def tier_report(self) -> dict:
        """Cluster-wide tier occupancy (cache stats, per-node pages and
        bytes, compression rollups)."""
        return self.index.tier_report()

    def cluster_health(self) -> dict:
        """Liveness snapshot: node counts by state plus the per-group
        breakdown the serving HEALTH endpoint reports."""
        nodes = self.index.topology.nodes
        dead = sorted(n.node_id for n in nodes if not n.alive)
        suspected = sorted(n.node_id for n in nodes if n.alive and n.suspected)
        groups = {}
        for group in self.index.topology.groups:
            groups[group.group_id] = {
                "alive": sum(1 for n in group.nodes if n.alive),
                "total": len(group.nodes),
            }
        return {
            "nodes_total": len(nodes),
            "nodes_alive": len(nodes) - len(dead),
            "nodes_dead": dead,
            "nodes_suspected": suspected,
            "groups": groups,
            "replication": self.index.config.replication,
        }

    def health_report(self, batch: BatchReports) -> dict:
        """Continuous-health snapshot of *batch* (what
        :meth:`query_under_faults` returned): the cluster liveness view
        (:meth:`cluster_health`) plus — when a
        :class:`~repro.obs.health.HealthMonitor` rode the batch — its SLI
        windows, alert states, alert transitions (with correlated causes
        and trace ids), and the event tail.  The programmatic face of
        ``repro watch``."""
        out = {"cluster": self.cluster_health()}
        if batch.monitor is not None:
            out.update(batch.monitor.snapshot())
            out["firing"] = batch.monitor.alerts_firing()
        return out

    @property
    def index_version(self) -> int:
        """Monotonic index mutation counter (see
        :attr:`~repro.core.index.MendelIndex.version`).  Query entry points
        are pure functions of the index state at one version; the serving
        layer keys cache validity on it."""
        return self.index.version

    def service(self, **kwargs) -> "QueryService":
        """A :class:`~repro.serve.service.QueryService` over this deployment
        — the concurrent, cached, load-shedding entry point the TCP gateway
        (``repro serve``) fronts.  Keyword arguments pass through to the
        service constructor."""
        from repro.serve.service import QueryService

        return QueryService(self, **kwargs)

    @property
    def stats(self) -> IndexStats:
        return self.index.stats

    @property
    def node_count(self) -> int:
        return len(self.index.topology.nodes)

    @property
    def block_count(self) -> int:
        return len(self.index.store)

    def load_fractions(self) -> dict[str, float]:
        """Per-node storage share (the Fig. 5 load-balance measure)."""
        return self.index.load_fractions()
