"""Result-table formatting for the per-figure benchmark harness.

The benchmarks print the same rows/series the paper's figures report;
:func:`format_table` renders them as aligned ASCII so the output of
``pytest benchmarks/ --benchmark-only`` is directly comparable to the
figures, and :func:`growth_ratio` / :func:`speedup` are the shape measures
the figures' checks read.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, Any]],
    headers: Sequence[str] | None = None,
    title: str = "",
    float_format: str = "{:.4g}",
) -> str:
    """Render *rows* (dicts) as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if headers is None:
        headers = list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    table = [[fmt(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(str(h)), *(len(line[i]) for line in table))
        for i, h in enumerate(headers)
    ]
    sep = "  "
    lines = []
    if title:
        lines.append(title)
    lines.append(sep.join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append(sep.join("-" * w for w in widths))
    for line in table:
        lines.append(sep.join(line[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> float:
    """How strongly *ys* grows over the measured range of *xs*:
    ``(y_last / y_first)`` normalised by ``(x_last / x_first)``.

    1.0 means linear growth; << 1 means flat/sublinear; values near 0 mean
    essentially constant.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two aligned points at least")
    if xs[0] <= 0 or ys[0] <= 0:
        raise ValueError("growth ratio requires positive first values")
    return (ys[-1] / ys[0]) / (xs[-1] / xs[0])


def speedup(ys: Sequence[float]) -> float:
    """First-to-last ratio of a decreasing series (scalability measure)."""
    if len(ys) < 2:
        raise ValueError("need at least two points")
    if ys[-1] <= 0:
        raise ValueError("last value must be positive")
    return ys[0] / ys[-1]

