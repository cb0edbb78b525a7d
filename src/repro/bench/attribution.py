"""Bench-delta attribution: ``repro bench diff A.json B.json``.

The regression harness (:mod:`repro.bench.regress`) says *that* a metric
moved; this module says *why*.  Given two BENCH files — and, when present,
the ``PROFILE_<n>.json`` cost profiles captured next to them by
``repro bench --regress --profile`` — it:

1. computes the delta of every metric the two reports share, ranked by
   relative movement;
2. computes, per ``(stage, code-site, counter)`` cell of the two cost
   profiles, how the cell's *share* of its counter total moved between the
   runs (a share that moved is a code path whose relative weight changed —
   the profiler-level signature of a regression or an optimisation);
3. attributes each metric delta to the cells whose counter is relevant to
   it (a metric named after a cost counter attributes to exactly that
   counter; wall/turnaround metrics attribute across all counters);
4. renders the result as a ranked, deterministic ``ATTRIBUTION.md``.

Everything here is a pure function of the input files, so the rendered
markdown is byte-identical across re-runs — CI asserts exactly that.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.bench.regress import Metric
from repro.obs.profile import CostProfiler

PROFILE_SUITE = "repro-profile"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: metric-name fragments mapped to the cost counters that explain them
#: (checked in order; first hit wins).  Metrics matching no rule — wall
#: clocks, turnarounds, ratios — attribute across every counter.
_METRIC_COUNTER_RULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("distance_evals", ("distance_evals",)),
    ("hash_evals", ("distance_evals",)),
    ("knn_candidates", ("knn_candidates", "blocks_scanned")),
    ("candidates", ("knn_candidates", "blocks_scanned")),
    ("cold", ("cold_read_bytes", "cold_read_seeks",
              "cache_hits", "cache_misses")),
    ("bytes_on_disk", ("cold_read_bytes",)),
    ("ops_per_s", ()),  # throughput: all counters
)


def profile_path_for(bench_path: str | Path) -> Path:
    """The ``PROFILE_<n>.json`` sibling of a ``BENCH_<n>.json`` path."""
    bench_path = Path(bench_path)
    match = _BENCH_RE.match(bench_path.name)
    if match:
        return bench_path.with_name(f"PROFILE_{match.group(1)}.json")
    return bench_path.with_name(bench_path.name + ".profile.json")


def profile_report(cost: CostProfiler, seed: int) -> dict:
    """The PROFILE file payload for one captured run (sim side only, so
    the bytes are a pure function of the seed); its ``schema_version`` is
    the cost profile's own."""
    return {
        "suite": PROFILE_SUITE,
        "seed": seed,
        **cost.to_dict(),
    }


def write_profile(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_profile(path: str | Path) -> dict | None:
    """The PROFILE dict at *path*, or ``None`` when absent/unreadable."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(report, dict) or "counters" not in report:
        return None
    return report


# -- deltas ----------------------------------------------------------------------


def _metric_deltas(bench_a: dict, bench_b: dict) -> list[dict]:
    """Shared metrics of the two reports with their movement, ranked by
    relative change (largest first)."""
    deltas: list[dict] = []
    workloads_b = bench_b.get("workloads", {})
    for workload, payload in sorted(bench_a.get("workloads", {}).items()):
        payload_b = workloads_b.get(workload)
        if payload_b is None:
            continue
        metrics_b = payload_b.get("metrics", {})
        for name, raw_a in sorted(payload.get("metrics", {}).items()):
            raw_b = metrics_b.get(name)
            if raw_b is None:
                continue
            metric_a = Metric.from_dict(raw_a)
            metric_b = Metric.from_dict(raw_b)
            delta = metric_b.value - metric_a.value
            rel = delta / max(abs(metric_a.value), 1e-12)
            deltas.append({
                "workload": workload,
                "metric": name,
                "a": metric_a.value,
                "b": metric_b.value,
                "delta": delta,
                "relative": rel,
                "unit": metric_a.unit,
                "direction": metric_a.direction,
            })
    deltas.sort(key=lambda d: (-abs(d["relative"]),
                               d["workload"], d["metric"]))
    return deltas


def _profile_cells(profile: dict) -> dict[tuple[str, str, str], float]:
    """Flatten a PROFILE dict to ``(stage, site, counter) -> value``."""
    cells: dict[tuple[str, str, str], float] = {}
    for stage, sites in profile.get("counters", {}).items():
        for site, counters in sites.items():
            for counter, value in counters.items():
                cells[(stage, site, counter)] = float(value)
    return cells


def _share_movers(profile_a: dict, profile_b: dict) -> list[dict]:
    """Per-cell share movement between the two profiles, ranked.

    A cell's *share* is its fraction of the counter's total across all
    stages and sites in that profile; the mover list ranks cells by how
    much that share changed — the paths whose relative cost moved.
    """
    cells_a = _profile_cells(profile_a)
    cells_b = _profile_cells(profile_b)
    totals_a: dict[str, float] = {}
    totals_b: dict[str, float] = {}
    for (_s, _c, counter), value in cells_a.items():
        totals_a[counter] = totals_a.get(counter, 0.0) + value
    for (_s, _c, counter), value in cells_b.items():
        totals_b[counter] = totals_b.get(counter, 0.0) + value
    movers: list[dict] = []
    for key in sorted(set(cells_a) | set(cells_b)):
        stage, site, counter = key
        value_a = cells_a.get(key, 0.0)
        value_b = cells_b.get(key, 0.0)
        share_a = value_a / totals_a[counter] if totals_a.get(counter) else 0.0
        share_b = value_b / totals_b[counter] if totals_b.get(counter) else 0.0
        movers.append({
            "stage": stage,
            "site": site,
            "counter": counter,
            "a": value_a,
            "b": value_b,
            "delta": value_b - value_a,
            "share_a": round(share_a, 6),
            "share_b": round(share_b, 6),
            "share_move": round(share_b - share_a, 6),
        })
    movers.sort(key=lambda m: (-abs(m["share_move"]), -abs(m["delta"]),
                               m["stage"], m["site"], m["counter"]))
    return movers


def _counters_for_metric(metric_name: str) -> tuple[str, ...]:
    """The cost counters a metric delta attributes to (empty = all)."""
    lowered = metric_name.lower()
    for fragment, counters in _METRIC_COUNTER_RULES:
        if fragment in lowered:
            return counters
    return ()


def diff(
    bench_a: dict,
    bench_b: dict,
    profile_a: dict | None = None,
    profile_b: dict | None = None,
    label_a: str = "A",
    label_b: str = "B",
    top_movers: int = 5,
) -> dict:
    """The full diff structure ``render_attribution_md`` renders."""
    deltas = _metric_deltas(bench_a, bench_b)
    have_profiles = profile_a is not None and profile_b is not None
    movers = _share_movers(profile_a, profile_b) if have_profiles else []
    attribution: dict[str, list[dict]] = {}
    if have_profiles:
        for delta in deltas:
            counters = _counters_for_metric(delta["metric"])
            relevant = [
                m for m in movers
                if (not counters or m["counter"] in counters)
                and (m["a"] or m["b"])
            ]
            attribution[f"{delta['workload']}.{delta['metric']}"] = (
                relevant[:top_movers]
            )
    return {
        "a": label_a,
        "b": label_b,
        "seed_a": bench_a.get("seed"),
        "seed_b": bench_b.get("seed"),
        "metrics": deltas,
        "have_profiles": have_profiles,
        "movers": movers,
        "attribution": attribution,
    }


# -- rendering -------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Deterministic compact number rendering."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_pct(value: float) -> str:
    return f"{value * 100:+.2f}%"


def render_attribution_md(result: dict) -> str:
    """The ranked ATTRIBUTION.md text for a :func:`diff` result —
    a pure function of the diff, so re-renders are byte-identical."""
    lines = [
        "# Bench delta attribution",
        "",
        f"Comparing `{result['a']}` (baseline, seed "
        f"{result['seed_a']}) -> `{result['b']}` (current, seed "
        f"{result['seed_b']}).",
        "",
        "## Metric deltas (ranked by relative movement)",
        "",
    ]
    if not result["metrics"]:
        lines.append("The two reports share no metrics.")
    else:
        lines.append(
            "| rank | workload.metric | baseline | current | delta "
            "| relative | direction |"
        )
        lines.append("|---:|---|---:|---:|---:|---:|---|")
        for rank, delta in enumerate(result["metrics"], start=1):
            lines.append(
                f"| {rank} | {delta['workload']}.{delta['metric']} "
                f"| {_fmt(delta['a'])} | {_fmt(delta['b'])} "
                f"| {_fmt(delta['delta'])} {delta['unit']} "
                f"| {_fmt_pct(delta['relative'])} "
                f"| {delta['direction']} |"
            )
    lines.append("")
    if not result["have_profiles"]:
        lines.extend([
            "## Attribution",
            "",
            "No PROFILE files accompany these bench reports, so metric "
            "deltas cannot be attributed to code sites. Capture them with "
            "`repro bench --regress --profile` (writes `PROFILE_<n>.json` "
            "next to each `BENCH_<n>.json`).",
            "",
        ])
        return "\n".join(lines)
    lines.extend([
        "## Cost-share movement (per stage / code site / counter)",
        "",
        "| stage | site | counter | baseline | current | share move |",
        "|---|---|---|---:|---:|---:|",
    ])
    moved = [m for m in result["movers"] if m["share_move"] or m["delta"]]
    for mover in moved[:20]:
        lines.append(
            f"| {mover['stage']} | `{mover['site']}` | {mover['counter']} "
            f"| {_fmt(mover['a'])} | {_fmt(mover['b'])} "
            f"| {_fmt_pct(mover['share_move'])} |"
        )
    if not moved:
        lines.append("| — | no cost share moved between the runs | | | | |")
    lines.append("")
    lines.extend(["## Per-metric attribution", ""])
    for key, movers in result["attribution"].items():
        lines.append(f"### {key}")
        lines.append("")
        if not movers:
            lines.append(
                "No profiled cost cell is relevant to this metric."
            )
        else:
            for mover in movers:
                lines.append(
                    f"- {mover['stage']} `{mover['site']}` "
                    f"{mover['counter']}: {_fmt(mover['a'])} -> "
                    f"{_fmt(mover['b'])} "
                    f"(share {_fmt_pct(mover['share_move'])})"
                )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def write_attribution(result: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_attribution_md(result))
    return path
