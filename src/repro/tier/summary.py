"""In-RAM page summaries and the summary vp-tree.

Tier-1 routing and candidate pruning must never touch cold data, so each
on-disk page keeps a small resident summary:

* **centroid** — the per-column modal residue of the page's rows (the same
  reference the delta codec compresses against, so one artifact serves
  both compression and pruning);
* **radius** — the largest metric distance from the centroid to any row;
* **histogram** — residue counts over the page (occupancy reporting and a
  cheap composition fingerprint).

A static vp-tree over the centroids answers "which pages *could* hold a
row within distance ``r`` of this query?" by the triangle inequality: page
``p`` is a candidate iff ``d(q, centroid_p) <= r + radius_p``.  The query
fan-out prefetches exactly that candidate set before node service starts,
so cold reads batch into one sequential fetch instead of per-miss seeks.

Summary distances run on a **fresh** :class:`MetricAdapter` — never the
node tree's — so summary maintenance and prefetch pruning stay out of the
tree adapter's lifetime evaluation count, which an insert's service time
is bracketed from (searches count their own evaluations); every simulated
service time is byte-identical to the all-RAM deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vptree.metric import MetricAdapter
from repro.vptree.tree import VPTree


@dataclass
class PageSummary:
    """Resident metadata for one on-disk page."""

    index: int
    centroid: np.ndarray
    radius: float
    histogram: np.ndarray
    rows: int
    raw_bytes: int
    comp_bytes: int
    pinned: bool


def page_centroid(rows: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Per-column modal residue (ties break toward the smaller code, which
    keeps the centroid deterministic)."""
    width = rows.shape[1]
    centroid = np.empty(width, dtype=np.uint8)
    size = max(int(alphabet_size), int(rows.max(initial=0)) + 1)
    for col in range(width):
        centroid[col] = np.bincount(rows[:, col], minlength=size).argmax()
    return centroid


def summarize_rows(
    rows: np.ndarray, adapter: MetricAdapter, alphabet_size: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """``(centroid, radius, histogram)`` for one page of rows; *adapter*
    must be a fresh (non-simulation) metric adapter."""
    centroid = page_centroid(rows, alphabet_size)
    dists = adapter.batch(centroid, rows)
    histogram = np.bincount(rows.ravel(), minlength=alphabet_size).astype(
        np.uint32  # counts <= rows*width; int64 would double the RAM bill
    )
    return centroid, float(dists.max()) if dists.size else 0.0, histogram


class SummaryIndex:
    """A vp-tree over page centroids for routing-time candidate pruning."""

    def __init__(
        self, summaries: list[PageSummary], adapter: MetricAdapter
    ) -> None:
        self.summaries = summaries
        self.adapter = adapter
        self.max_radius = max((s.radius for s in summaries), default=0.0)
        if summaries:
            centroids = np.stack([s.centroid for s in summaries])
            self._tree = VPTree(
                centroids,
                adapter,
                payloads=[s.index for s in summaries],
                bucket_capacity=8,
                rng=0,
            )
        else:
            self._tree = None

    def candidates(self, query_codes: np.ndarray, radius: float) -> list[int]:
        """Page indices whose ball ``(centroid, page radius)`` can intersect
        the search ball ``(query, radius)``; sorted ascending so prefetch
        reads pages in file order."""
        if self._tree is None or not np.isfinite(radius):
            return []
        hits = self._tree.radius_search(query_codes, radius + self.max_radius)
        out = [
            page_index
            for dist, page_index in hits
            if dist <= radius + self.summaries[page_index].radius
        ]
        return sorted(out)

    def occupancy(self) -> dict:
        """Aggregate residency-independent page statistics."""
        return {
            "pages": len(self.summaries),
            "pinned_pages": sum(1 for s in self.summaries if s.pinned),
            "rows": sum(s.rows for s in self.summaries),
            "raw_bytes": sum(s.raw_bytes for s in self.summaries),
            "comp_bytes": sum(s.comp_bytes for s in self.summaries),
            "max_radius": self.max_radius,
        }
