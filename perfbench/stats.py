"""Small numeric helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import sys

import numpy as np


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, p: float) -> float:
    """The *p*-th percentile (0..100) by linear interpolation."""
    return float(np.percentile(values, p)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the layer did no work."""
    return float(numerator) / float(denominator) if denominator else 0.0


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def spread(values) -> float:
    """Interquartile range as a share of the median — the driver's measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
