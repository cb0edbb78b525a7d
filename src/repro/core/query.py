"""Query evaluation (paper section V-B) over the simulated cluster.

The pipeline, executed as discrete-event processes so the reported
*turnaround* reflects cluster parallelism:

1. the client sends the query to the **system entry point** (any node —
   Mendel is symmetric);
2. a sliding window of the indexed segment length steps over the query in
   intervals of ``k`` (subquery normalisation with reduced amplification);
3. each window is hashed through the vp-prefix tree *with branching
   tolerance*; every group the traversal reaches becomes a **group entry
   point** for that window (where nodes serve windows from their
   pigeonhole part keys, the part-key directory names the groups instead:
   those placing a block equal to the window on a part,
   :mod:`repro.core.directory`);
4. each group broadcasts its windows to all member nodes (tier-2 placement
   is flat, so every node may hold relevant blocks); nodes run local
   vp-tree k-NN, filter candidates by percent identity and c-score, and
   lengthen survivors into anchors via the block neighbour references;
5. anchors aggregate at the group entry point (overlapping same-diagonal
   anchors combined), then again at the system entry point;
6. merged anchors whose normalised score exceeds ``S`` receive a banded
   gapped extension (band of ``l`` diagonals); results are scored with the
   user matrix ``M``, assigned Karlin–Altschul E-values, filtered at ``E``,
   deduplicated, ranked, and returned.

Step 4's node-local work is the pure :func:`execute`, one call over every
node-subquery of a query; everything on the simulated clock around it is a
:class:`_BatchRun`, which replays each node's share at that node's service
time and whose ``publish`` is the only writer of a node's cost record to
stats, counters, profile and span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.align.gapped import banded_extend, diagonal_identity
from repro.align.result import Alignment, Anchor
from repro.align.stats import KarlinAltschulParams, karlin_altschul
from repro.cluster.group import StorageGroup
from repro.cluster.messages import (
    AnchorReport,
    GroupReport,
    QueryResult,
    SubQuery,
)
from repro.cluster.node import StorageNode, named_knn
from repro.core.aggregate import merge_anchors
from repro.core.anchors import evaluate_candidate, extend_anchor, max_mismatches
from repro.core.blocks import BlockStore
from repro.core.index import MendelIndex
from repro.core.params import QueryParams
from repro.obs.health import HealthMonitor
from repro.obs.metrics import default_registry
from repro.obs.profile import FUNNEL_COUNTERS, charge as profile_charge
from repro.obs.trace import NO_SPAN, Span, TraceContext
from repro.seq.alphabet import Alphabet
from repro.seq.matrices import dna_matrix, named_matrix
from repro.seq.records import SequenceRecord
from repro.sim.engine import AllOf, AnyOf, Simulation
from repro.sim.network import Network
from repro.sim.resource import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosController
    from repro.faults.schedule import FaultSchedule


@dataclass
class QueryStats:
    """Per-query accounting reported alongside the alignments."""

    turnaround: float = 0.0
    windows: int = 0
    groups_contacted: int = 0
    subqueries_routed: int = 0
    candidate_hits: int = 0
    #: candidates surviving the percent-identity filter
    identity_pass: int = 0
    #: identity survivors also passing the consecutivity-score filter
    cscore_pass: int = 0
    anchors_extended: int = 0
    anchors_merged: int = 0
    gapped_extensions: int = 0
    alignments_reported: int = 0
    node_evals: int = 0
    messages: int = 0
    bytes_sent: int = 0
    #: subquery retries after a drop, timeout, or mid-query node death
    hedged_retries: int = 0

    def funnel(self) -> "list[tuple[str, int]]":
        """``(stage, count)`` pairs of the candidate attrition funnel, in
        pipeline order; each stage's count is <= the previous stage's."""
        return [(stage, getattr(self, field_name))
                for stage, field_name in FUNNEL_STAGES]

    @classmethod
    def merged(cls, parts: "list[QueryStats]") -> "QueryStats":
        """Stats of one logical query answered as several sub-queries of
        one batch (translated search's six frames): counts are summed,
        ``turnaround`` is the slowest part's, and ``messages`` /
        ``bytes_sent`` — already totals of the batch's shared network —
        are taken once."""
        out = cls(**{
            spec.name: sum(getattr(part, spec.name) for part in parts)
            for spec in fields(cls)
        })
        out.turnaround = max(part.turnaround for part in parts)
        out.messages, out.bytes_sent = parts[-1].messages, parts[-1].bytes_sent
        return out


#: The attrition funnel (paper pipeline III-E / V-B), in order: each stage
#: name paired with the :class:`QueryStats` field holding its count.
FUNNEL_STAGES: tuple[tuple[str, str], ...] = tuple(zip(FUNNEL_COUNTERS, (
    "candidate_hits", "identity_pass", "cscore_pass", "anchors_extended",
    "anchors_merged", "gapped_extensions", "alignments_reported",
), strict=True))
_FUNNEL_FIELD = dict(FUNNEL_STAGES)

#: Cost-profile site names: those of the closures the :class:`_BatchRun`
#: methods replaced, so PROFILE files diff cleanly across that change.
_NODE_SITE = "core/query.py:node_proc"
_SYSTEM_SITE = "core/query.py:system_proc"


@dataclass(frozen=True, slots=True)
class WindowRoute:
    """Tier-1 routing of one subquery window, as the run decided it (a
    report keeps one a window, so it has no per-instance ``__dict__``)."""

    window: int
    query_start: int
    #: prefix-tree vertices where the tolerance traversal stopped: frontier
    #: prefixes, or ancestors whose frontier prefixes one group owns (empty
    #: on the part-key path)
    prefixes: tuple[int, ...]
    #: the groups the window went to: on the walk, those its prefixes map
    #: to in first-reached order; on the part-key path, those holding a part
    #: match, in topology order
    groups: tuple[str, ...]
    #: which routing decided it: ``"parts"`` (the part-key directory) or
    #: ``"walk"`` (the vp-prefix walk with branching tolerance)
    path: str

    @property
    def replicated(self) -> bool:
        """True when branching tolerance sent this window to >1 group."""
        return len(self.groups) > 1

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "query_start": self.query_start,
            "prefixes": list(self.prefixes),
            "groups": list(self.groups),
            "replicated": self.replicated,
            "path": self.path,
        }


@dataclass
class QueryReport:
    """Result of one query: ranked alignments plus statistics.

    ``coverage`` is the fraction of distinct index blocks in the contacted
    groups that a responding node actually searched; 1.0 means the answer
    is complete with respect to the routed subqueries.  ``degraded`` is set
    whenever coverage fell short — some blocks had no reachable holder —
    so callers can distinguish a complete answer from a best-effort one.
    ``failed_nodes`` lists the nodes that failed to contribute (dead at
    fan-out, crashed mid-query, unreachable, or past the subquery
    deadline even after a hedged retry).
    """

    query_id: str
    alignments: list[Alignment]
    stats: QueryStats
    coverage: float = 1.0
    degraded: bool = False
    failed_nodes: list[str] = field(default_factory=list)
    #: where the run sent each window, in window order (what EXPLAIN reads;
    #: empty on a report merged from several runs)
    routes: list[WindowRoute] = field(default_factory=list)
    #: root of the span tree recorded when a :class:`~repro.obs.trace.
    #: TraceContext` was attached to the run (``None`` otherwise); its
    #: sim-clock duration equals ``stats.turnaround``
    root_span: Span | None = None

    @property
    def trace_id(self) -> str | None:
        return self.root_span.trace_id if self.root_span is not None else None

    def best(self) -> Alignment | None:
        return self.alignments[0] if self.alignments else None

    def subject_ids(self) -> list[str]:
        """Distinct subject ids in rank order."""
        seen: set[str] = set()
        out: list[str] = []
        for alignment in self.alignments:
            if alignment.subject_id not in seen:
                seen.add(alignment.subject_id)
                out.append(alignment.subject_id)
        return out

    def hits(self, subject_id: str) -> list[Alignment]:
        return [a for a in self.alignments if a.subject_id == subject_id]


class BatchReports(list):
    """What :meth:`QueryEngine.run_batch` returns: one :class:`QueryReport`
    per query in input order, plus what rode the run on its clock — kept
    with the result, never on the shared engine."""

    #: the fault-schedule player (its ``log`` and ``summary()``); ``None``
    #: for a fault-free run
    chaos: "ChaosController | None" = None
    #: the health monitor that watched the run; ``None`` when none did
    monitor: HealthMonitor | None = None


def resolve_matrix(params: QueryParams, alphabet: Alphabet) -> np.ndarray:
    """The scoring matrix for this query, defaulting sensibly per alphabet.

    ``M`` names the matrix (Table I); a protein default (``BLOSUM62``)
    against a DNA database silently means "the DNA default" rather than an
    error, matching how alignment tools pick per-program defaults.
    """
    if alphabet.name == "dna" and params.M.lower() == "blosum62":
        return dna_matrix()
    return named_matrix(params.M)


def parts_selective(width: int, mismatches: int, letters: int) -> bool:
    """Whether a query's *width*-residue windows over *letters* letters
    are routed by, and scored on, their ``m + 1`` pigeonhole part keys —
    the part-path decision, made once a run by :class:`_BatchRun` and by
    nothing else: a random row equals a window
    on one at odds of at most 1 in 256 (the crossover with the vp-tree,
    measured between 7.0 and 10.6 bits whatever the node's size; DESIGN.md)
    and m > 0 (a radius-0 vp-tree walk is already an exact lookup)."""
    bits = width // (mismatches + 1) * math.log2(letters) - math.log2(mismatches + 1)
    return mismatches > 0 and bits >= 8


@dataclass
class _Window:
    index: int
    query_start: int
    codes: np.ndarray
    #: on the part-key route, the ids of the blocks placed on the group it
    #: was sent to that equal it on a part (``None`` where the walk routed)
    candidates: np.ndarray | None = None


@dataclass(frozen=True)
class _NodeFailure:
    """Sentinel returned by a subquery that produced no usable anchors."""

    node_id: str
    reason: str  # "unreachable" | "died" | "deadline"


@dataclass
class NodeWork:
    """What :func:`execute` returns for one ``(node, windows)`` job: the
    node's anchors and, in integer counts, what finding them took.  Pricing
    it (:meth:`seconds`) and counting it on the node
    (:meth:`StorageNode.served`) is the replay's, at the node's service
    time."""

    anchors: list[Anchor] = field(default_factory=list)
    #: distance evaluations of each window, in window order
    window_evals: tuple[int, ...] = ()
    candidates: int = 0
    identity_pass: int = 0
    cscore_pass: int = 0
    extension_ops: int = 0
    io_seeks: int = 0
    io_bytes: int = 0
    #: candidates whose durable copy failed its digest (dropped unscored)
    corrupt_reads: int = 0
    #: which search served the node: ``"parts"`` or ``"vptree"``
    search: str = "vptree"

    @property
    def evals(self) -> int:
        return sum(self.window_evals)

    def seconds(self, node: StorageNode) -> tuple[float, float]:
        """This work priced on *node* at its current speed, ``(io_seconds,
        service_seconds)``: the cold reads' device time, then each window's
        search, then the extension's residue operations, summed in that
        order into the service time."""
        io_seconds = (node.tier.io_seconds(self.io_seeks, self.io_bytes)
                      if self.io_seeks else 0.0)
        seconds = 0.0 + io_seconds
        for evals in self.window_evals:
            seconds += node.service_time(evals)
        seconds += node.service_time_ops(self.extension_ops)
        return io_seconds, seconds


def execute(
    jobs: "list[tuple[StorageNode, list[_Window]]]", query_codes: np.ndarray,
    params: QueryParams, radius: float, matrix: np.ndarray, store: BlockStore,
) -> list[NodeWork]:
    """Node-local work (pipeline step 4) of one query's node-subqueries,
    one :class:`NodeWork` per ``(node, windows)`` job, in job order: each
    node's local k-NN over its windows, one verified read of every
    candidate the searches returned, the identity and c-score filters on
    the verified ones, and the extension of every survivor.

    The work is fused across jobs wherever the result of each stays its
    own.  Every job whose windows carry candidates (the part-key route
    named them) is searched in one :func:`~repro.cluster.node.named_knn`
    call, RAM and spilled nodes alike, which scores all their named pairs
    together, each window keeping its own n nearest by (distance, tree
    row); every other job runs its node's vp-tree
    (:meth:`StorageNode.local_knn`).  Each node's candidates pass its own
    verified read; then one :func:`evaluate_candidate` call and one
    :func:`extend_anchor` call take every job's rows (both are row by row),
    and each node keeps the first of its anchors that extend to the same
    place, in its survivor order.  A one-job call is the one node's kernel.

    No simulator, registry, span or :class:`QueryStats` in here, and
    nothing is counted on a node: what each job did comes back in counts.
    """
    width = store.segment_length
    positives = matrix if store.database.alphabet.name == "protein" else None
    works = [NodeWork() for _ in jobs]
    # Every job's windows stacked: a window's lane is its row here.
    windows = [window for _, mine in jobs for window in mine]
    codes = np.stack([window.codes for window in windows])
    offsets = np.cumsum([0] + [len(mine) for _, mine in jobs]).tolist()
    searched: list = [None] * len(jobs)
    named = []
    for at, (node, mine) in enumerate(jobs):
        own = codes[offsets[at]:offsets[at + 1]]
        if mine[0].candidates is not None:
            named.append((at, (node, own, [window.candidates for window in mine])))
            works[at].search = "parts"
        else:
            searched[at] = node.local_knn(own, params.n, radius)
    if named:
        for (at, _), found in zip(named, named_knn(
                [job for _, job in named], params.n, radius)):
            searched[at] = found
    # Each job's candidates as (lane, block), window by window and nearest
    # first within a window, through the node's verified read: a hit whose
    # durable copy fails its content digest is skipped — the query's
    # fan-out to the block's other replicas answers from a healthy copy
    # instead of serving rotted bytes.
    job_of, lanes, block_ids = [], [], []
    for at, ((node, _), work, found) in enumerate(zip(jobs, works, searched)):
        work.io_seeks, work.io_bytes = found.cold_reads, found.cold_bytes
        work.window_evals = tuple(evals for _, evals in found)
        hits = [(lane, block_id)
                for lane, (window_hits, _evals) in enumerate(found, offsets[at])
                for _dist, block_id in window_hits]
        work.candidates = len(hits)
        verified = node.verdicts([block_id for _, block_id in hits]) if hits else []
        work.corrupt_reads = verified.count(False)
        for (lane, block_id), ok in zip(hits, verified):
            if ok:
                job_of.append(at)
                lanes.append(lane)
                block_ids.append(block_id)
    if not block_ids:
        return works
    score = evaluate_candidate(
        codes[lanes], store.codes_matrix(block_ids), positives)
    similar = score.identity >= params.i
    passed = similar & (score.c_score >= params.c)
    job_of = np.asarray(job_of)
    for at, (identity, cscore) in enumerate(zip(
        np.bincount(job_of[similar], minlength=len(jobs)).tolist(),
        np.bincount(job_of[passed], minlength=len(jobs)).tolist(),
    )):
        works[at].identity_pass, works[at].cscore_pass = identity, cscore
    survivors = np.flatnonzero(passed)
    if not survivors.size:
        return works
    ids = np.asarray(block_ids)[survivors]
    starts, record_lo, record_hi = store.flat_spans(ids)
    extended = extend_anchor(
        query_codes, store.flat_codes(),
        query_start=[windows[lanes[at]].query_start for at in survivors],
        subject_start=starts, subject_bounds=(record_lo, record_hi),
        width=width, identity_threshold=params.i, matrix=matrix,
    )
    # Neighbouring windows often extend to the same anchor: each node keeps
    # the first, in its survivor order.
    seen: set[tuple[int, int, int]] = set()
    previous = -1
    for at, block_id, lo, q_start, q_end, s_start, anchor_score in zip(
        job_of[survivors].tolist(), ids.tolist(), record_lo.tolist(),
        *(column.tolist() for column in extended)
    ):
        if at != previous:
            seen, previous = set(), at
        key = (lo, s_start - lo - q_start, q_start)
        if key in seen:
            continue
        seen.add(key)
        work = works[at]
        work.extension_ops += q_end - q_start
        work.anchors.append(Anchor(
            seq_id=store.block(block_id).seq_id, query_start=q_start,
            query_end=q_end, subject_start=s_start - lo,
            subject_end=s_start - lo + q_end - q_start,
            score=float(anchor_score),
        ))
    return works


#: X-drop of the gapped pass's banded extensions
X_DROP = 25.0
#: affine gap costs of the gapped pass (BLAST's BLOSUM62 defaults)
GAP_OPEN = 11.0
GAP_EXTEND = 1.0
#: gapped extensions per subject sequence (the bin-level absorption of
#: section V-B bounds work on noisy bins)
MAX_GAPPED_PER_SUBJECT = 4


class _SubjectQueue:
    """One subject's anchors to gapped-extend, in order, handed out a run at
    a time, and the alignments their extensions found.

    The order processes best raw score first: long, reliable anchors claim
    the per-subject budget (:data:`MAX_GAPPED_PER_SUBJECT`) before short lucky
    ones, and anchors whose normalised score is below ``S`` never qualify
    (the normalised score stays the paper's *trigger*, not the order; a
    merged anchor's is its best part's, :attr:`Anchor.density`).

    Once a gapped extension covers a region, remaining anchors of the same
    sequence within ``l`` diagonals whose seed falls inside it are absorbed
    ("the gapped extension considers all anchors from the same sequence
    within l diagonals in either direction") rather than re-extended.  Only
    an anchor within ``l`` diagonals of an extended one can be absorbed by
    it, so a run stops before the first anchor within ``l`` diagonals of an
    earlier anchor of the same run: every anchor of a run is one the
    one-at-a-time walk extends too, whatever the run's extensions find."""

    def __init__(self, anchors: list[Anchor], params: QueryParams) -> None:
        self.queue = [
            anchor
            for anchor in sorted(anchors, key=lambda a: (-a.score, a.query_start))
            if anchor.density >= params.S
        ]
        self.band = params.l
        self.cursor = 0
        self.budget = MAX_GAPPED_PER_SUBJECT
        #: (query start, query end, anchor diagonal) of each alignment found
        self.covered: list[tuple[int, int, int]] = []
        self.found: list[Alignment] = []

    @property
    def open(self) -> bool:
        return self.budget > 0 and self.cursor < len(self.queue)

    def next_run(self) -> list[Anchor]:
        """The next anchors to extend together; absorbed anchors are passed."""
        band = self.band
        run: list[Anchor] = []
        while len(run) < self.budget and self.cursor < len(self.queue):
            anchor = self.queue[self.cursor]
            diagonal = anchor.diagonal
            mid = (anchor.query_start + anchor.query_end) // 2
            if not any(lo <= mid < hi and abs(diagonal - diag) <= band
                       for lo, hi, diag in self.covered):
                if any(abs(diagonal - other.diagonal) <= band for other in run):
                    break  # its fate waits on this run's extensions
                run.append(anchor)
            self.cursor += 1
        self.budget -= len(run)
        return run

    def extended(self, anchor: Anchor, alignment: Alignment | None) -> None:
        """Record one extension of this subject's last run (``None``: it
        failed the E-value filter, covers nothing and reports nothing)."""
        if alignment is not None:
            self.covered.append(
                (alignment.query_start, alignment.query_end, anchor.diagonal)
            )
            self.found.append(alignment)


@dataclass
class _QueryState:
    """Everything one in-flight query of a batch accumulates."""

    index: int
    query: SequenceRecord
    arrival: float
    trace_ctx: TraceContext | None
    stats: QueryStats = field(default_factory=QueryStats)
    root: "Span | object" = NO_SPAN
    routes: list[WindowRoute] = field(default_factory=list)
    #: blocks placed on the routed groups (read as a group's subqueries
    #: reach it), and those of them a responding member of the group holds
    placed: int = 0
    covered: int = 0
    failed: set[str] = field(default_factory=set)
    alignments: list[Alignment] = field(default_factory=list)
    completed_at: float | None = None
    coverage: float = 1.0
    #: node id -> (windows, node stamp, work) of the node-subqueries run
    #: right after routing, for the replay to use while the stamp holds
    executed: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return self.coverage < 1.0


@dataclass(eq=False)
class _BatchRun:
    """The simulated processes of one :meth:`QueryEngine.run_batch` call:
    a generator method per role (:meth:`node`, :meth:`guarded_node`,
    :meth:`group`, :meth:`system`) over the clock, network, CPU locks and
    metric families the batch shares."""

    engine: "QueryEngine"
    params: QueryParams
    sim: Simulation
    net: Network
    subquery_deadline: float | None
    monitor: HealthMonitor | None

    def __post_init__(self) -> None:
        index, params = self.engine.index, self.params
        self.elog = self.monitor.events if self.monitor is not None else None
        self.topo = index.topology
        self.store = index.store
        self.placed = index.blocks_of_group
        self.matrix = resolve_matrix(params, index.alphabet)
        self.radius = self.engine.search_radius(params)
        self.tolerance = self.engine.tolerance(params)
        # Where nodes serve windows from their m + 1 part keys, so does
        # tier 1 (0: the vp-prefix walk routes).
        width = index.segment_length
        mismatches = max_mismatches(width, params.i)
        self.parts = mismatches + 1 if parts_selective(
            width, mismatches, index.alphabet.canonical_size) else 0
        self.directory = index.part_directory
        nodes = self.topo.nodes
        self.entry = next((n for n in nodes if n.alive), nodes[0])
        # CPU locks are created on demand: the autoscaler can add nodes
        # mid-run, and those must contend like any seed node.
        self.locks: dict[str, Resource] = {}
        self.states: list[_QueryState] = []
        self._resolve_metrics()

    def _resolve_metrics(self) -> None:
        counter = default_registry().counter
        self.m_queries = counter(
            "repro_queries_total", "Queries evaluated by the engine",
            ("status",))
        self.m_routed = counter(
            "repro_subqueries_routed_total",
            "Window subqueries routed to storage groups", ("group",))
        m_funnel = counter(
            "repro_query_funnel_total",
            "Candidates surviving each stage of the query attrition funnel",
            ("stage",))
        self.funnel = {stage: m_funnel.labels(stage=stage)
                       for stage, _field in FUNNEL_STAGES}

    def inflight_before(self, cutoff: float) -> int:
        """Queries that arrived before *cutoff* and have not completed: the
        autoscaler holds a topology change's dual-ownership window open
        until none is left, so mid-rebalance answers match a quiesced one."""
        return sum(state.arrival < cutoff and state.completed_at is None
                   for state in self.states)

    def lock_for(self, node_id: str) -> Resource:
        lock = self.locks.get(node_id)
        if lock is None:
            lock = self.locks[node_id] = Resource(self.sim, name=node_id)
        return lock

    @staticmethod
    def _subquery_bytes(src: str, dst: str, windows: list[_Window]) -> int:
        nbytes = sum(w.codes.nbytes + getattr(w.candidates, "nbytes", 0)
                     for w in windows)
        return SubQuery(src=src, dst=dst, codes_bytes=nbytes).wire_bytes()

    def publish(self, stats: QueryStats, stage: str, site: str,
                counts: dict[str, int], **costs: int) -> None:
        """Add funnel-stage *counts* to the query's stats and the funnel
        counters and charge them, after the other *costs*, to the cost
        profile — the one writer of all three, so they cannot disagree."""
        for name, count in counts.items():
            field_name = _FUNNEL_FIELD[name]
            setattr(stats, field_name, getattr(stats, field_name) + count)
            self.funnel[name].inc(count)
        profile_charge(stage, site, **costs, **counts)

    def publish_node(self, work: NodeWork, stats: QueryStats, span) -> None:
        """One node's work record, to stats, counters, profile and span."""
        evals, candidates = work.evals, work.candidates
        stats.node_evals += evals
        self.publish(
            stats, "node", _NODE_SITE,
            {"knn_candidates": candidates,
             "identity_pass": work.identity_pass,
             "cscore_pass": work.cscore_pass,
             "anchors_extended": len(work.anchors)},
            distance_evals=evals, residues_compared=work.extension_ops,
            blocks_scanned=candidates, cold_read_bytes=work.io_bytes,
            cold_read_seeks=work.io_seeks,
        )
        span.annotate(evals=evals, candidates=candidates,
                      identity_pass=work.identity_pass,
                      cscore_pass=work.cscore_pass, search=work.search)

    # -- processes ---------------------------------------------------------------

    def node(self, state: _QueryState, node: StorageNode,
             coordinator: StorageNode, windows: list[_Window], span):
        sim, net = self.sim, self.net
        # Broadcast delivery coordinator -> node (drop-aware: a lossy
        # link or partition loses the subquery; the caller hedges).
        delivered, delay = net.try_transfer(
            coordinator.node_id, node.node_id,
            self._subquery_bytes(coordinator.node_id, node.node_id, windows),
        )
        yield delay
        if not delivered or not node.alive:
            return _NodeFailure(node.node_id, "unreachable")
        # Acquire the node CPU: concurrent queries queue FIFO here.
        lock = self.lock_for(node.node_id)
        yield lock.request()
        try:
            work = self._work(state, node, windows)
            anchors, (io_seconds, seconds) = work.anchors, work.seconds(node)
            node.served(len(windows), work.evals, work.corrupt_reads)
            self.publish_node(work, state.stats, span)
            # Cold tier reads this subquery paid for (device time is
            # inside the service yield below).
            io_span = span.child(
                "cold_read", sim_now=sim.now, actor=node.node_id,
                seeks=work.io_seeks, bytes=work.io_bytes, category="io",
            ) if work.io_seeks or work.io_bytes else NO_SPAN
            yield seconds
            io_span.annotate(io_seconds=io_seconds)
            io_span.finish(sim_now=sim.now)
        finally:
            lock.release()
        if not node.alive:
            # Crash-stop mid-service: the partial results died with it.
            return _NodeFailure(node.node_id, "died")
        # Report anchors node -> coordinator (drop-aware).
        delivered, delay = net.try_transfer(
            node.node_id, coordinator.node_id,
            AnchorReport(src=node.node_id, dst=coordinator.node_id,
                         anchor_count=len(anchors)).wire_bytes(),
        )
        yield delay
        if not delivered:
            return _NodeFailure(node.node_id, "unreachable")
        return anchors

    def _work(self, state: _QueryState, node: StorageNode,
              windows: list[_Window]) -> NodeWork:
        """The node's work on *windows*: what :meth:`_execute_ahead` found,
        while the node's stamp says nothing it reads has changed since;
        else (a spilled node, a node changed or added mid-query) the node
        alone, now."""
        ahead = state.executed.get(node.node_id)
        if ahead is not None and ahead[0] is windows and ahead[1] == node.stamp:
            return ahead[2]
        [work] = execute([(node, windows)], state.query.codes, self.params,
                         self.radius, self.matrix, self.store)
        return work

    def _execute_ahead(self, state: _QueryState, routing: dict) -> None:
        """Run, in one :func:`execute` call, the subquery of every alive,
        all-RAM member of every routed group, each stamped with its node's
        :attr:`~StorageNode.stamp`.  A spilled node is left to its service
        time: its cold reads and what its reads admit to the shared cache
        depend on the cache as it is then."""
        jobs = [(node, windows) for _, (group, windows) in sorted(routing.items())
                for node in group.nodes if node.alive and not node.tiered]
        if not jobs:
            return
        works = execute(jobs, state.query.codes, self.params, self.radius,
                        self.matrix, self.store)
        for (node, windows), work in zip(jobs, works):
            state.executed[node.node_id] = (windows, node.stamp, work)

    def guarded_node(self, state: _QueryState, node: StorageNode,
                     coordinator: StorageNode, windows: list[_Window],
                     parent_span):
        """One subquery with a deadline and a single hedged retry.

        Retries only make sense while the node is still alive (a dropped
        message or straggler round); a dead node's blocks are covered —
        if at all — by the replica holders in the same fan-out.
        """
        sim = self.sim
        attempts = 0
        while True:
            span = parent_span.child(
                f"node:{node.node_id}", sim_now=sim.now, actor=node.node_id,
                windows=len(windows), attempt=attempts,
            )
            if attempts:
                span.annotate(hedged_retry=True)
            inner = sim.spawn(
                self.node(state, node, coordinator, windows, span),
                name=f"q{state.index}:node:{node.node_id}:a{attempts}",
            )
            if self.subquery_deadline is not None:
                timer = sim.event(f"q{state.index}:deadline:{node.node_id}")
                timer.fire_at(self.subquery_deadline)
                which, value = yield AnyOf([inner, timer])
                result = (value if which == 0
                          else _NodeFailure(node.node_id, "deadline"))
            else:
                result = yield inner
            if not isinstance(result, _NodeFailure):
                span.annotate(anchors=len(result))
                span.finish(sim_now=sim.now)
                return result
            span.annotate(failed=result.reason)
            span.finish(sim_now=sim.now)
            if attempts >= 1 or not node.alive:
                return result
            attempts += 1
            state.stats.hedged_retries += 1

    def group(self, state: _QueryState, group: StorageGroup,
              windows: list[_Window], parent_span):
        sim, net, entry = self.sim, self.net, self.entry
        gspan = parent_span.child(
            f"group:{group.group_id}", sim_now=sim.now,
            actor=group.group_id, windows=len(windows),
        )
        # Pin the coordinator for this query's lifetime: src/dst of every
        # in-flight transfer stays stable even if the entry node dies
        # mid-query (the replies were already addressed).
        coordinator = group.entry_point()
        gspan.annotate(coordinator=coordinator.node_id)
        # System entry -> group coordinator (the subquery batch).
        yield net.transfer(
            entry.node_id, coordinator.node_id,
            self._subquery_bytes(entry.node_id, coordinator.node_id, windows),
        )
        scope = self._scope_coverage(state, group, gspan)
        fanout = [node for node in group.nodes if node.alive]
        node_events = [
            sim.spawn(self.guarded_node(state, node, coordinator, windows,
                                        gspan),
                      name=f"q{state.index}:guard:{node.node_id}")
            for node in fanout
        ]
        if not node_events:
            gspan.annotate(failed="group-down")
            gspan.finish(sim_now=sim.now)
            return []  # whole group down: no anchors from here
        per_node = yield AllOf(node_events)
        collected = self._collect(state, group, fanout, per_node, scope,
                                  gspan)
        aspan = gspan.child("group_aggregate", sim_now=sim.now,
                            actor=group.group_id)
        merged = merge_anchors(collected)
        yield coordinator.service_time_ops(4 * max(1, len(collected)))
        aspan.annotate(anchors_in=len(collected), anchors_out=len(merged))
        aspan.finish(sim_now=sim.now)
        # Group coordinator -> system entry.
        yield net.transfer(
            coordinator.node_id, entry.node_id,
            GroupReport(src=coordinator.node_id, dst=entry.node_id,
                        anchor_count=len(merged)).wire_bytes(),
        )
        gspan.annotate(anchors=len(merged))
        gspan.finish(sim_now=sim.now)
        return merged

    def _scope_coverage(self, state: _QueryState, group: StorageGroup,
                        gspan) -> frozenset[int]:
        """Coverage denominator: every block placed on *group* is in scope
        for the routed subqueries, so a block no live member answers for —
        its holders crashed, or no copy of it is left — counts against
        coverage.  (A group merged away after the query routed to it has no
        placement left; its nodes' retained copies still answer.)  Returns
        the scope."""
        scope = self.placed.get(group.group_id, frozenset())
        state.placed += len(scope)
        dead_members = []
        for member in group.nodes:
            if not member.alive:
                state.failed.add(member.node_id)
                dead_members.append(member.node_id)
        if dead_members:
            gspan.annotate(dead_nodes=",".join(sorted(dead_members)))
        return scope

    def _collect(self, state: _QueryState, group: StorageGroup,
                 fanout: list[StorageNode], per_node: list,
                 scope: frozenset[int], gspan) -> list[Anchor]:
        """Anchors of the nodes that answered (the blocks of *scope* they
        hold count as covered); the ones that did not are recorded and
        reported."""
        collected: list[Anchor] = []
        failed_here = []
        held = []
        for node, result in zip(fanout, per_node):
            if isinstance(result, _NodeFailure):
                state.failed.add(node.node_id)
                failed_here.append(node.node_id)
            else:
                collected.extend(result)
                held.append(node.held)
        state.covered += self.engine.covered(group.group_id, scope, held)
        if failed_here:
            gspan.annotate(failed_nodes=",".join(sorted(failed_here)))
            if self.elog is not None:
                self.elog.emit(
                    "subquery_failed", group.group_id,
                    f"{len(failed_here)} subquery failure(s) for "
                    f"{state.query.seq_id}", sim_time=self.sim.now,
                    trace_id=getattr(gspan, "trace_id", None),
                    span_id=getattr(gspan, "span_id", None),
                    nodes=",".join(sorted(failed_here)),
                )
        return collected

    def system(self, state: _QueryState):
        sim, net, entry, query = self.sim, self.net, self.entry, state.query
        if state.arrival > 0:
            yield state.arrival
        if state.trace_ctx is not None:
            state.root = state.trace_ctx.begin(
                f"query:{query.seq_id}", sim_now=sim.now, actor="client",
                query_id=query.seq_id, residues=len(query),
                entry=entry.node_id,
            )
        root = state.root
        # Client -> system entry point.
        span = root.child("receive", sim_now=sim.now, actor="client")
        yield net.transfer("client", entry.node_id, query.codes.nbytes + 64)
        span.finish(sim_now=sim.now)
        routing = yield from self._route(state)
        self._execute_ahead(state, routing)
        span = root.child("fanout", sim_now=sim.now, actor=entry.node_id,
                          groups=len(routing))
        group_events = [
            sim.spawn(self.group(state, group, wins, span),
                      name=f"q{state.index}:group:{gid}")
            for gid, (group, wins) in sorted(routing.items())
        ]
        merged: list[Anchor] = []
        if group_events:
            per_group = yield AllOf(group_events)
            merged = merge_anchors([a for group in per_group for a in group])
        self.publish(state.stats, "fanout", _SYSTEM_SITE,
                     {"anchors_merged": len(merged)})
        span.annotate(anchors_merged=len(merged))
        span.finish(sim_now=sim.now)
        yield from self._gapped(state, merged)
        # System entry -> client.
        span = root.child("reply", sim_now=sim.now, actor=entry.node_id)
        yield net.transfer(
            entry.node_id, "client",
            QueryResult(src=entry.node_id, dst="client",
                        alignment_count=len(state.alignments)).wire_bytes(),
        )
        span.finish(sim_now=sim.now)
        root.finish(sim_now=sim.now)
        self._complete(state)

    def _route(self, state: _QueryState):
        """Window the query and route every window once; the decision is
        recorded in ``state.routes``.  Where nodes serve windows from their
        part keys (``self.parts``), a window goes to the groups whose placed
        blocks equal it on a part — one lookup in the index's part-key
        directory, charged ``parts`` key lookups a window — and carries
        to each the ids of those blocks, the only rows its nodes score.
        Elsewhere the vp-prefix walk with branching tolerance routes it,
        charged the walk's own evaluation count.  Returns ``{group id:
        (group, windows routed to it)}``."""
        entry, stats = self.entry, state.stats
        span = state.root.child("route", sim_now=self.sim.now,
                                actor=entry.node_id)
        windows = self.engine.windows_for(state.query, self.params)
        stats.windows = len(windows)
        evals = lookups = 0
        if self.parts:
            groups = self.topo.groups
            named = self.directory.route(
                np.stack([window.codes for window in windows]), self.parts,
                [group.group_id for group in groups])
            decided = [((), []) for _ in windows]
            for group, (lanes, ids) in zip(groups, named):
                lanes, starts = np.unique(lanes, return_index=True)
                for lane, chunk in zip(lanes.tolist(), np.split(ids, starts[1:])):
                    window = windows[lane]
                    decided[lane][1].append((group, _Window(
                        window.index, window.query_start, window.codes, chunk)))
            lookups = self.parts * len(windows)
        else:
            decided = []
            for window in windows:
                route = self.topo.route(window.codes, self.tolerance)
                evals += route.evals
                decided.append((route.prefixes,
                                [(group, window) for group in route.groups]))
        path = "parts" if self.parts else "walk"
        routing: dict[str, tuple[StorageGroup, list[_Window]]] = {}
        # Windows sent to the same groups share one tuple of their ids.
        group_ids: dict[tuple[str, ...], tuple[str, ...]] = {}
        for window, (prefixes, sent) in zip(windows, decided):
            for group, copy in sent:
                routing.setdefault(group.group_id, (group, []))[1].append(copy)
            ids = tuple(group.group_id for group, _ in sent)
            state.routes.append(WindowRoute(
                window.index, window.query_start, prefixes,
                group_ids.setdefault(ids, ids), path,
            ))
        for group_id, (_, routed) in routing.items():
            stats.subqueries_routed += len(routed)
            self.m_routed.labels(group=group_id).inc(len(routed))
        self.publish(stats, "route", _SYSTEM_SITE, {},
                     distance_evals=evals, key_lookups=lookups)
        yield entry.service_time(evals + lookups)
        stats.groups_contacted = len(routing)
        span.annotate(windows=len(windows), groups=len(routing),
                      subqueries=stats.subqueries_routed)
        span.finish(sim_now=self.sim.now)
        return routing

    def _gapped(self, state: _QueryState, merged: list[Anchor]):
        """The final gapped pass at the system entry point."""
        entry = self.entry
        span = state.root.child("gapped", sim_now=self.sim.now,
                                actor=entry.node_id)
        (alignments, gapped_count), gapped_ops = self.engine._gapped_pass(
            state.query, merged, self.params, self.matrix
        )
        state.alignments = alignments
        self.publish(
            state.stats, "gapped", _SYSTEM_SITE,
            {"gapped_extensions": gapped_count, "alignments": len(alignments)},
            residues_compared=int(gapped_ops),
        )
        yield entry.service_time_ops(gapped_ops)
        span.annotate(extensions=gapped_count, alignments=len(alignments))
        span.finish(sim_now=self.sim.now)

    def _complete(self, state: _QueryState) -> None:
        """Stamp completion and feed the health monitor / event log."""
        now = self.sim.now
        state.completed_at = now
        state.executed.clear()
        stats = state.stats
        stats.turnaround = now - state.arrival
        if state.placed:
            state.coverage = state.covered / state.placed
        trace_id = getattr(state.root, "trace_id", None)
        if self.monitor is not None:
            self.monitor.observe_query(
                now, stats.turnaround, state.coverage,
                degraded=state.degraded, trace_id=trace_id,
            )
        if self.elog is not None:
            self.elog.emit(
                "query", self.entry.node_id, f"{state.query.seq_id} answered",
                sim_time=now, trace_id=trace_id,
                coverage=round(state.coverage, 6), degraded=state.degraded,
                turnaround=round(stats.turnaround, 9),
            )

    def report(self, state: _QueryState) -> QueryReport:
        """The finished query's report (call after the clock has run)."""
        stats, root = state.stats, state.root
        stats.messages = self.net.stats.messages
        stats.bytes_sent = self.net.stats.bytes_sent
        root.annotate(
            coverage=round(state.coverage, 6), degraded=state.degraded,
            hedged_retries=stats.hedged_retries, turnaround=stats.turnaround,
        )
        if state.failed:
            root.annotate(failed_nodes=",".join(sorted(state.failed)))
        status = "degraded" if state.degraded else "ok"
        self.m_queries.labels(status=status).inc()
        return QueryReport(
            query_id=state.query.seq_id, alignments=state.alignments,
            stats=stats, coverage=state.coverage, degraded=state.degraded,
            failed_nodes=sorted(state.failed), routes=state.routes,
            root_span=root if isinstance(root, Span) else None,
        )


class QueryEngine:
    """Evaluates queries against a :class:`~repro.core.index.MendelIndex`."""

    def __init__(self, index: MendelIndex) -> None:
        self.index = index
        self._ka_cache: dict[str, KarlinAltschulParams] = {}
        self._background = index.database.residue_frequencies()
        #: group id -> ((scope, responders' held ids), blocks covered)
        self._covered: dict[str, tuple[tuple, int]] = {}

    # -- statistics --------------------------------------------------------

    def ka_params(self, params: QueryParams) -> KarlinAltschulParams:
        key = params.M.lower() + ":" + self.index.alphabet.name
        if key not in self._ka_cache:
            matrix = resolve_matrix(params, self.index.alphabet)
            self._ka_cache[key] = karlin_altschul(matrix, self._background)
        return self._ka_cache[key]

    def search_radius(self, params: QueryParams) -> float:
        """Largest local-tree distance the identity filter could accept.

        With at most ``max_mismatches(w, i)`` mismatching positions in a
        window of length ``w``, the segment distance cannot exceed
        ``mismatches * max_per_residue_distance`` — so bounding the NNS at
        that radius is lossless.
        """
        mismatches = max_mismatches(self.index.segment_length, params.i)
        metric = self.index.topology.nodes[0].tree.adapter.metric
        per_residue = getattr(metric, "matrix", None)
        if per_residue is None:
            return float(mismatches)  # Hamming: distance == mismatches
        return mismatches * float(np.asarray(per_residue).max())

    def tolerance(self, params: QueryParams) -> float:
        """Branching tolerance of the tier-1 vp-prefix walk: half the
        search radius.  Read only where the walk routes: where nodes serve
        windows from their part keys, the part-key directory routes and no
        tolerance applies."""
        return 0.5 * self.search_radius(params)

    def covered(self, group_id: str, scope: frozenset[int],
                held: list[np.ndarray]) -> int:
        """How many blocks of *scope* one of the *held* id arrays holds.
        The placement record's sets and ``StorageNode.held`` are immutable
        and replaced on change, so the count is cached per group by their
        identity."""
        key = (scope, *held)
        cached = self._covered.get(group_id)
        if cached is None or len(cached[0]) != len(key) or any(
            mine is not theirs for mine, theirs in zip(cached[0], key)
        ):
            ids = np.fromiter(scope, dtype=np.int64, count=len(scope))
            count = int(np.isin(ids, np.concatenate(held)).sum()) if held else 0
            cached = self._covered[group_id] = (key, count)
        return cached[1]

    # -- window construction ----------------------------------------------------

    def windows_for(self, query: SequenceRecord, params: QueryParams) -> list[_Window]:
        w = self.index.segment_length
        length = len(query)
        if length < w:
            raise ValueError(
                f"query length {length} is shorter than the indexed segment "
                f"length {w}"
            )
        positions = list(range(0, length - w + 1, params.k))
        if positions[-1] != length - w:
            positions.append(length - w)  # always cover the tail
        return [
            _Window(index=i, query_start=pos, codes=query.codes[pos : pos + w])
            for i, pos in enumerate(positions)
        ]

    # -- the pipeline -------------------------------------------------------------

    def run(
        self,
        query: SequenceRecord,
        params: QueryParams | None = None,
        faults: "FaultSchedule | None" = None,
        subquery_deadline: float | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> QueryReport:
        """Evaluate *query*; returns ranked alignments and statistics.

        With a *trace_ctx*, the report carries the span tree of the
        distributed dataflow (``report.root_span``), stamped with both
        wall and sim clocks.
        """
        return self.run_batch(
            [query], params, faults=faults,
            subquery_deadline=subquery_deadline,
            trace_contexts=[trace_ctx] if trace_ctx is not None else None,
        )[0]

    def run_batch(
        self,
        queries: list[SequenceRecord],
        params: QueryParams | None = None,
        arrival_interval: float = 0.0,
        faults: "FaultSchedule | None" = None,
        subquery_deadline: float | None = None,
        trace_contexts: "list[TraceContext] | None" = None,
        monitor: HealthMonitor | None = None,
        arrival_times: "list[float] | None" = None,
        autoscaler=None,
    ) -> BatchReports:
        """Evaluate *queries* concurrently on one simulated cluster; returns
        one report per query, in input order, as :class:`BatchReports`
        (which also carries the run's ``chaos`` and ``monitor``).

        Query ``i`` arrives at simulated time ``i * arrival_interval`` (0 =
        all at once), or at ``arrival_times[i]`` when that explicit
        non-decreasing schedule is given — how the autoscale scenarios
        shape diurnal and flash-crowd load.  Overlapping queries contend
        for each node's CPU through a FIFO :class:`~repro.sim.resource.
        Resource`, so each ``turnaround`` (completion minus arrival)
        reflects queueing under load; a single-query batch reduces exactly
        to the sequential behaviour.

        *faults* attaches a scripted :class:`~repro.faults.schedule.
        FaultSchedule` to the run's clock: nodes crash, restart, or
        straggle, links drop and partition, heartbeats detect deaths, and
        re-replication restores the replication factor — all
        deterministically from the schedule's seed.  *subquery_deadline*
        bounds each node-level subquery in simulated seconds; a subquery
        that misses it (straggler, drop) is hedged with one retry, after
        which the node counts as failed and the report degrades
        (``coverage`` / ``degraded`` / ``failed_nodes`` say how complete
        each answer is); ``reports.chaos`` holds the run's timeline.

        *trace_contexts* (one :class:`~repro.obs.trace.TraceContext` per
        query) records each query's span tree as ``report.root_span``: its
        children tile the turnaround stage by stage (receive, route, fanout
        with per-group/per-node subspans, gapped, reply), annotated with
        hedged retries, node failures, and degraded coverage.

        *monitor* puts a :class:`~repro.obs.health.HealthMonitor` on the
        run's sim clock: every completed query feeds its availability /
        coverage / turnaround SLIs, a tick process evaluates the SLO engine
        across the run, and its event log collects the query / fault /
        repair / alert stream.  With *faults* set and no monitor given, one
        is auto-created scaled to the schedule's horizon; either way it is
        ``reports.monitor``.  Without faults monitoring is strictly opt-in,
        so the plain read path pays no event overhead.

        *autoscaler* spawns an :class:`~repro.scale.controller.AutoScaler`
        tick process on the same clock and horizon as the monitor, closing
        the loop: alerts fire, the scaler mutates the topology mid-run
        (nodes added lazily acquire CPU locks on first contact), and the
        alerts resolve.  When the scaler brings its own monitor and none
        is passed here, that monitor is attached to the run.
        """
        params = params or QueryParams()
        arrivals = self._check_batch(
            queries, arrival_interval, arrival_times, subquery_deadline,
            trace_contexts,
        )
        sim = Simulation()
        net = Network(sim=sim, rng=faults.seed if faults is not None else None)
        reports = BatchReports()
        reports.monitor, reports.chaos = self._attach_health(
            sim, net, faults, monitor, autoscaler,
            arrival_interval, max(arrivals, default=0.0),
        )
        batch = _BatchRun(self, params, sim, net, subquery_deadline,
                          reports.monitor)
        contexts = trace_contexts or [None] * len(queries)
        batch.states = [
            _QueryState(i, query, arrivals[i], contexts[i])
            for i, query in enumerate(queries)
        ]
        if autoscaler is not None:
            autoscaler.inflight_before = batch.inflight_before
        done_events = [
            sim.spawn(batch.system(state), name=f"q{state.index}:system-entry")
            for state in batch.states
        ]
        sim.run()
        if not all(event.fired for event in done_events):
            raise RuntimeError("query simulation did not complete")
        reports.extend(batch.report(state) for state in batch.states)
        return reports

    def _check_batch(
        self, queries: list[SequenceRecord], arrival_interval: float,
        arrival_times: "list[float] | None", subquery_deadline: float | None,
        trace_contexts: "list[TraceContext] | None",
    ) -> list[float]:
        """Validate a batch's inputs; returns each query's arrival time."""
        if trace_contexts is not None and len(trace_contexts) != len(queries):
            raise ValueError(
                f"{len(trace_contexts)} trace contexts for "
                f"{len(queries)} queries"
            )
        if arrival_interval < 0:
            raise ValueError(
                f"arrival_interval must be non-negative, got {arrival_interval}"
            )
        if arrival_times is not None:
            if len(arrival_times) != len(queries):
                raise ValueError(
                    f"{len(arrival_times)} arrival times for "
                    f"{len(queries)} queries"
                )
            if any(t < 0 for t in arrival_times):
                raise ValueError("arrival times must be non-negative")
            if any(b < a for a, b in zip(arrival_times, arrival_times[1:])):
                raise ValueError("arrival times must be non-decreasing")
        if subquery_deadline is not None and subquery_deadline <= 0:
            raise ValueError(
                f"subquery_deadline must be positive, got {subquery_deadline}"
            )
        for query in queries:
            if query.alphabet.name != self.index.alphabet.name:
                raise ValueError(
                    f"query alphabet {query.alphabet.name!r} does not match "
                    f"the indexed alphabet {self.index.alphabet.name!r}"
                )
        if arrival_times is not None:
            return list(arrival_times)
        return [i * arrival_interval for i in range(len(queries))]

    def _attach_health(
        self, sim: Simulation, net: Network, faults: "FaultSchedule | None",
        monitor: HealthMonitor | None, autoscaler, arrival_interval: float,
        last_arrival: float,
    ) -> tuple[HealthMonitor | None, "ChaosController | None"]:
        """Put the chaos controller, health monitor and autoscaler on the
        run's clock (see :meth:`run_batch` for who gets a monitor); returns
        the monitor and the chaos controller."""
        if monitor is None and autoscaler is not None:
            monitor = autoscaler.monitor
        if monitor is None and faults is not None:
            monitor = HealthMonitor.for_chaos_run(
                faults.effective_horizon, arrival_interval=arrival_interval,
            )
        chaos = None
        if faults is not None:
            from repro.faults.chaos import ChaosController

            chaos = ChaosController(
                sim, net, self.index, faults,
                event_log=monitor.events, recorder=monitor.recorder,
            )
            chaos.install()
        if monitor is not None:
            if chaos is not None:
                monitor.backlog_fn = chaos.pending_repairs
            horizon = faults.effective_horizon if faults is not None else 0.0
            stop_at = (
                max(horizon, last_arrival)
                + max(4.0 * monitor.interval, 4.0 * monitor.fast_window)
            )
            sim.spawn(monitor.tick_proc(sim, stop_at), name="health-monitor")
            if autoscaler is not None:
                sim.spawn(autoscaler.tick_proc(sim, stop_at),
                          name="autoscaler")
        return monitor, chaos

    # -- the final gapped pass -------------------------------------------------------

    def _gapped_pass(
        self,
        query: SequenceRecord,
        merged: list[Anchor],
        params: QueryParams,
        matrix: np.ndarray,
    ) -> tuple[tuple[list[Alignment], int], float]:
        """Gapped-extend qualifying anchors; score, filter by E, dedupe, rank.

        Each subject's anchors are worked through in its own sequential
        order (:class:`_SubjectQueue`), but the subjects advance together: a
        *round* takes every subject's next run of anchors that cannot absorb
        one another and extends them all in one :func:`banded_extend` call.

        Returns ``((alignments, gapped_count), residue_ops_charged)``.
        """
        ka = self.ka_params(params)
        db_len = max(1, self.index.database.total_residues)
        ops = 0.0
        gapped_count = 0
        by_subject: dict[str, list[Anchor]] = {}
        for anchor in merged:
            by_subject.setdefault(anchor.seq_id, []).append(anchor)
        # In the order the alignments are emitted.
        queues = [_SubjectQueue(by_subject[seq_id], params)
                  for seq_id in sorted(by_subject)]
        live = queues
        while live:
            lanes = [(queue, anchor) for queue in live for anchor in queue.next_run()]
            scored = self._extend_and_score(
                query, [anchor for _, anchor in lanes], params, matrix, ka, db_len
            )
            for (queue, anchor), (alignment, cell_ops) in zip(lanes, scored):
                ops += cell_ops
                gapped_count += 1
                queue.extended(anchor, alignment)
            live = [queue for queue in live if queue.open]
        raw = [alignment for queue in queues for alignment in queue.found]
        alignments = self._dedupe_rank(raw)
        return (alignments, gapped_count), ops

    def _extend_and_score(
        self,
        query: SequenceRecord,
        anchors: list[Anchor],
        params: QueryParams,
        matrix: np.ndarray,
        ka: KarlinAltschulParams,
        db_len: int,
    ) -> list[tuple[Alignment | None, int]]:
        """Gapped-extend one round of anchors in a single
        :func:`banded_extend` call and build each one's alignment (``None``
        if it fails the E-value filter), paired with its residue-op cost."""
        if not anchors:
            return []
        subjects = [self.index.database[anchor.seq_id].codes for anchor in anchors]
        if params.l > 0:
            mids = [(anchor.query_start + anchor.query_end) // 2 for anchor in anchors]
            extents = banded_extend(
                query.codes,
                subjects,
                matrix,
                seed_query=[min(max(mid, 0), len(query) - 1) for mid in mids],
                seed_subject=[
                    min(max(mid + anchor.diagonal, 0), subject.shape[0] - 1)
                    for mid, anchor, subject in zip(mids, anchors, subjects)
                ],
                bandwidth=params.l,
                gap_open=GAP_OPEN,
                gap_extend=GAP_EXTEND,
                x_drop=X_DROP,
            )
            cells = 2 * params.l + 1
            costs = [(ext.query_end - ext.query_start) * cells for ext in extents]
        else:
            # No band: the anchor's own span and score stand as the extension.
            extents = anchors
            costs = [anchor.length for anchor in anchors]

        scored: list[tuple[Alignment | None, int]] = []
        for anchor, subject, ext, ops in zip(anchors, subjects, extents, costs):
            evalue = ka.evalue(ext.score, len(query), db_len)
            alignment = None if evalue > params.E else Alignment(
                query_id=query.seq_id,
                subject_id=anchor.seq_id,
                query_start=ext.query_start,
                query_end=ext.query_end,
                subject_start=ext.subject_start,
                subject_end=ext.subject_end,
                score=ext.score,
                bit_score=ka.bit_score(ext.score),
                evalue=evalue,
                identity=diagonal_identity(query.codes, subject, ext),
            )
            scored.append((alignment, ops))
        return scored

    @staticmethod
    def _dedupe_rank(alignments: list[Alignment]) -> list[Alignment]:
        """Suppress near-duplicate alignments (same subject, mostly
        overlapping query spans), then rank by E-value then score."""
        ordered = sorted(alignments, key=lambda a: (a.evalue, -a.score))
        kept: list[Alignment] = []
        for candidate in ordered:
            duplicate = False
            for existing in kept:
                if existing.subject_id != candidate.subject_id:
                    continue
                lo = max(existing.query_start, candidate.query_start)
                hi = min(existing.query_end, candidate.query_end)
                overlap = max(0, hi - lo)
                shorter = max(
                    1, min(existing.query_span, candidate.query_span)
                )
                if overlap / shorter > 0.7:
                    duplicate = True
                    break
            if not duplicate:
                kept.append(candidate)
        return kept
