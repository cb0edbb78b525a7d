"""Cluster balance auditing: the Fig. 5 load-spread argument, quantified.

Mendel's two-tier placement makes a specific claim (sections IV-C, V-A.2,
evaluated in Fig. 5): tier 1 (the vp-prefix LSH) deliberately *skews*
blocks across groups — similar blocks must land together for routing to
prune work — while tier 2 (flat SHA-1 inside each group) spreads whatever
the group received near-uniformly over its nodes.  The system is balanced
where it matters (every node in a contacted group does comparable work)
without sacrificing locality where *that* matters (queries touch few
groups).

:class:`BalanceAuditor` measures both tiers on a live
:class:`~repro.core.index.MendelIndex`:

* per-node and per-group primary-block counts, with the coefficient of
  variation (CV) and Gini coefficient of each distribution;
* the mean *intra-group* CV — the flat-SHA-1 tier, expected near zero;
* tier-1 prefix-route mass — blocks per vp-prefix route, whose skew is
  the price of locality.

Reports are cached against ``index.version`` so repeated audits (metrics
scrapes, health probes) cost a dict lookup, not a re-hash of the store.
:meth:`BalanceAuditor.install` exposes the audit as collect-time gauges on
a :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.metrics import FamilySnapshot, MetricsRegistry, Sample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.index import MendelIndex


# -- statistics ------------------------------------------------------------------


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population CV (stddev / mean); 0.0 for empty or zero-mean input."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean


def gini(values: Sequence[float]) -> float:
    """Gini coefficient in [0, 1); 0.0 for empty or zero-sum input.

    Computed from the sorted form: ``sum_i (2i - n + 1) x_i / (n * sum x)``.
    0 is perfect equality; values approaching 1 mean one holder owns
    everything.
    """
    n = len(values)
    if n == 0:
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((2 * i - n + 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


# -- report ----------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """One audit of the cluster's block distribution (both tiers).

    All counts are *primary* placements (replicas excluded), matching the
    Fig. 5 methodology: replication multiplies every node's load by the
    same factor, so it cancels out of every spread statistic.
    """

    #: ``index.version`` this audit reflects.
    index_version: int
    #: Total primary blocks placed.
    total_blocks: int
    #: node_id -> primary block count.
    per_node: dict[str, int] = field(default_factory=dict)
    #: group_id -> primary block count.
    per_group: dict[str, int] = field(default_factory=dict)
    #: vp-prefix (tier-1 route) -> block count.
    per_prefix: dict[int, int] = field(default_factory=dict)
    #: group_id -> CV of that group's per-node counts (tier-2 spread).
    intra_group_cv: dict[str, float] = field(default_factory=dict)

    # -- distribution-level statistics ------------------------------------------

    @property
    def node_cv(self) -> float:
        """CV of the global per-node distribution."""
        return coefficient_of_variation(list(self.per_node.values()))

    @property
    def node_gini(self) -> float:
        return gini(list(self.per_node.values()))

    @property
    def group_cv(self) -> float:
        """CV of the per-group distribution (tier-1 skew at group level)."""
        return coefficient_of_variation(list(self.per_group.values()))

    @property
    def group_gini(self) -> float:
        return gini(list(self.per_group.values()))

    @property
    def prefix_cv(self) -> float:
        """CV of blocks per tier-1 route — the locality/balance trade."""
        return coefficient_of_variation(list(self.per_prefix.values()))

    @property
    def mean_intra_group_cv(self) -> float:
        """Mean tier-2 (flat SHA-1) spread across groups; near 0 = Fig. 5."""
        if not self.intra_group_cv:
            return 0.0
        return sum(self.intra_group_cv.values()) / len(self.intra_group_cv)

    @property
    def max_load_fraction(self) -> float:
        """Largest share of all blocks held by any single node."""
        if not self.total_blocks or not self.per_node:
            return 0.0
        return max(self.per_node.values()) / self.total_blocks

    def to_dict(self) -> dict:
        """JSON-serialisable form (prefix keys become strings)."""
        return {
            "index_version": self.index_version,
            "total_blocks": self.total_blocks,
            "per_node": dict(sorted(self.per_node.items())),
            "per_group": dict(sorted(self.per_group.items())),
            "per_prefix": {
                str(prefix): count
                for prefix, count in sorted(self.per_prefix.items())
            },
            "intra_group_cv": {
                group: round(cv, 6)
                for group, cv in sorted(self.intra_group_cv.items())
            },
            "node_cv": round(self.node_cv, 6),
            "node_gini": round(self.node_gini, 6),
            "group_cv": round(self.group_cv, 6),
            "group_gini": round(self.group_gini, 6),
            "prefix_cv": round(self.prefix_cv, 6),
            "mean_intra_group_cv": round(self.mean_intra_group_cv, 6),
            "max_load_fraction": round(self.max_load_fraction, 6),
        }

    def summary(self) -> dict:
        """The scalar statistics alone (what health endpoints embed)."""
        return {
            "index_version": self.index_version,
            "total_blocks": self.total_blocks,
            "node_cv": round(self.node_cv, 6),
            "node_gini": round(self.node_gini, 6),
            "group_cv": round(self.group_cv, 6),
            "group_gini": round(self.group_gini, 6),
            "prefix_cv": round(self.prefix_cv, 6),
            "mean_intra_group_cv": round(self.mean_intra_group_cv, 6),
            "max_load_fraction": round(self.max_load_fraction, 6),
        }

    def render(self) -> str:
        """Human-readable audit table (``repro info --balance``)."""
        lines = [
            f"cluster balance (index version {self.index_version}, "
            f"{self.total_blocks} primary blocks)",
            "",
            f"  tier-1 group skew : CV {self.group_cv:.3f}, "
            f"Gini {self.group_gini:.3f} over {len(self.per_group)} group(s)",
            f"  tier-1 route skew : CV {self.prefix_cv:.3f} over "
            f"{len(self.per_prefix)} prefix route(s)",
            f"  tier-2 node spread: mean intra-group CV "
            f"{self.mean_intra_group_cv:.3f} (flat SHA-1)",
            f"  global node view  : CV {self.node_cv:.3f}, "
            f"Gini {self.node_gini:.3f}, max load fraction "
            f"{self.max_load_fraction:.3f}",
            "",
            f"  {'group':<8}{'blocks':>8}{'share':>9}{'intra CV':>10}  nodes",
        ]
        for group_id in sorted(self.per_group):
            count = self.per_group[group_id]
            share = count / self.total_blocks if self.total_blocks else 0.0
            members = {
                node_id: node_count
                for node_id, node_count in sorted(self.per_node.items())
                if node_id.startswith(f"{group_id}.")
            }
            spread = " ".join(
                f"{node_id.split('.')[-1]}={node_count}"
                for node_id, node_count in members.items()
            )
            lines.append(
                f"  {group_id:<8}{count:>8}{share:>8.1%}"
                f"{self.intra_group_cv.get(group_id, 0.0):>10.3f}  {spread}"
            )
        return "\n".join(lines)


# -- auditor ---------------------------------------------------------------------


def audit(index: "MendelIndex") -> BalanceReport:
    """One fresh (uncached) audit of *index*.

    Per-node counts come from primary placements (``index.node_of_block``)
    and per-group counts from the placement record
    (``index.blocks_of_group``); tier-1 route mass re-hashes every stored
    block in one batched descent of the shared prefix tree — still
    O(blocks) metric evaluations, so callers should prefer
    :class:`BalanceAuditor` and its version cache.
    """
    per_node = {node.node_id: 0 for node in index.topology.nodes}
    for node_id in index.node_of_block.values():
        per_node[node_id] = per_node.get(node_id, 0) + 1
    per_group = {
        group.group_id: len(index.blocks_of_group[group.group_id])
        for group in index.topology.groups
    }

    per_prefix: dict[int, int] = {}
    prefixes, _ = index.prefix_tree.hash_many(
        index.store.codes_matrix(range(len(index.store)))
    )
    for prefix in prefixes.tolist():
        per_prefix[prefix] = per_prefix.get(prefix, 0) + 1

    intra: dict[str, float] = {}
    for group in index.topology.groups:
        counts = [per_node.get(node.node_id, 0) for node in group.nodes]
        intra[group.group_id] = coefficient_of_variation(counts)

    return BalanceReport(
        index_version=index.version,
        total_blocks=len(index.node_of_block),
        per_node=per_node,
        per_group=per_group,
        per_prefix=per_prefix,
        intra_group_cv=intra,
    )


class BalanceAuditor:
    """Version-cached balance audits over one index, metrics-exposable.

    The audit re-hashes every block (tier-1 route attribution), so the
    auditor caches the :class:`BalanceReport` and recomputes only when
    ``index.version`` moves — inserts and scale-out invalidate, scrapes and
    health probes hit the cache.
    """

    def __init__(self, index: "MendelIndex") -> None:
        self.index = index
        self._cached: BalanceReport | None = None
        self._handle = None
        self._registry: MetricsRegistry | None = None
        self._installs = 0

    def report(self) -> BalanceReport:
        """The current audit, recomputed only when the index changed."""
        cached = self._cached
        if cached is None or cached.index_version != self.index.version:
            cached = audit(self.index)
            self._cached = cached
        return cached

    # -- metrics surface ---------------------------------------------------------

    def install(self, registry: MetricsRegistry) -> None:
        """Expose the audit as collect-time gauges on *registry*.

        Adds ``repro_balance_*`` summary gauges plus per-node and per-group
        block-count gauges; every scrape reflects the current index version
        at cache-hit cost.  Install/uninstall pairs are refcounted (several
        services may front one deployment); the callback is removed when
        the last installer uninstalls.
        """
        self._installs += 1
        if self._handle is not None:
            return
        self._registry = registry
        self._handle = registry.register_callback(self._collect)

    def uninstall(self) -> None:
        if self._installs:
            self._installs -= 1
        if self._installs:
            return
        if self._handle is not None and self._registry is not None:
            self._registry.unregister_callback(self._handle)
        self._handle = None
        self._registry = None

    def _collect(self) -> Iterable[FamilySnapshot]:
        report = self.report()
        summary_samples = [
            Sample("repro_balance_node_cv", (), report.node_cv),
            Sample("repro_balance_node_gini", (), report.node_gini),
            Sample("repro_balance_group_cv", (), report.group_cv),
            Sample("repro_balance_group_gini", (), report.group_gini),
            Sample("repro_balance_prefix_cv", (), report.prefix_cv),
            Sample(
                "repro_balance_intra_group_cv_mean",
                (),
                report.mean_intra_group_cv,
            ),
            Sample(
                "repro_balance_max_load_fraction",
                (),
                report.max_load_fraction,
            ),
        ]
        yield from (
            FamilySnapshot(
                name=sample.name,
                kind="gauge",
                help="Cluster balance audit statistic (see repro.cluster.balance)",
                samples=[sample],
            )
            for sample in summary_samples
        )
        yield FamilySnapshot(
            name="repro_balance_node_blocks",
            kind="gauge",
            help="Primary blocks held per storage node",
            samples=[
                Sample(
                    "repro_balance_node_blocks",
                    (("node", node_id),),
                    float(count),
                )
                for node_id, count in sorted(report.per_node.items())
            ],
        )
        yield FamilySnapshot(
            name="repro_balance_group_blocks",
            kind="gauge",
            help="Primary blocks held per storage group (tier-1 assignment)",
            samples=[
                Sample(
                    "repro_balance_group_blocks",
                    (("group", group_id),),
                    float(count),
                )
                for group_id, count in sorted(report.per_group.items())
            ],
        )
