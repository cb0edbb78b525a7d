"""Per-page summaries written into the block file.

Each on-disk page carries a small summary, computed once at spill time:

* **centroid** — the per-column modal residue of the page's rows, the
  reference the delta codec compresses against;
* **radius** — the largest metric distance from the centroid to any row;
* **histogram** — residue counts over the page (a cheap composition
  fingerprint).

**Paper vs ours.**  The paper has no disk tier.  In ours a node's search
reads every one of its pages once, in file order, so nothing chooses among
pages at query time and the summaries are not held in RAM: they live in the
MTBF page table, and only the codec reads the centroid back.

Summary distances run on a **fresh** :class:`MetricAdapter` — never the
node tree's — so spilling stays out of the tree adapter's lifetime
evaluation count, which an insert's service time is bracketed from.
"""

from __future__ import annotations

import numpy as np

from repro.vptree.metric import MetricAdapter


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
