"""Text rendering for ``repro watch`` — the terminal health dashboard.

The renderer is deliberately dumb: it takes the plain-dict snapshot a
:class:`~repro.obs.health.HealthMonitor` produces (the same dict the serve
``HEALTH``/``ALERTS`` verbs ship over the wire) and lays it out as fixed
sections — alert banner, SLI window grid, recent alert transitions, event
tail.  No curses, no ANSI requirements: a frame is a plain string, so the
``--once`` CI mode, the live loop (which just reprints frames), and tests
all share one code path.
"""

from __future__ import annotations

from typing import Iterable

_STATE_MARK = {
    "ok": "  ok  ",
    "warning": " WARN ",
    "critical": " CRIT ",
    "resolved": "rsolvd",
}


def _rule(title: str, width: int) -> str:
    pad = max(0, width - len(title) - 4)
    return f"== {title} " + "=" * pad


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f}ms"


def render_alerts(alerts: dict, width: int = 96) -> list[str]:
    lines = [_rule("alerts", width)]
    for name in sorted(alerts):
        alert = alerts[name]
        mark = _STATE_MARK.get(alert["state"], alert["state"][:6])
        line = (
            f"[{mark}] {name:<16} burn fast={alert['burn_fast']:8.2f} "
            f"slow={alert['burn_slow']:8.2f}"
        )
        cause = alert.get("cause")
        if cause and alert["state"] != "ok":
            line += f"  suspect: {cause.get('kind')} {cause.get('actor')}"
        trace_ids = alert.get("trace_ids") or []
        if trace_ids and alert["state"] != "ok":
            line += f"  e.g. {trace_ids[0]}"
        lines.append(line)
    if len(lines) == 1:
        lines.append("(no SLOs configured)")
    return lines


def _fmt_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def render_tier_cache(storage: dict, width: int = 96) -> list[str]:
    """The tier-cache panel: page-cache hit rate, pinned pages, cold-read
    device traffic (the ``storage`` rollup of ``tier_report()`` — the block
    cache's own counts and each node's occupancy — that the gateway ships
    in its ALERTS frame)."""
    lines = [_rule("tier cache", width)]
    if not storage.get("tiered"):
        lines.append("(deployment is all-RAM; nothing spilled)")
        return lines
    hits = float(storage.get("cache_hits", 0.0))
    misses = float(storage.get("cache_misses", 0.0))
    lookups = hits + misses
    hit_rate = (hits / lookups * 100.0) if lookups else 0.0
    lines.append(
        f"hit rate {hit_rate:5.1f}%  ({int(hits)} hits / "
        f"{int(misses)} misses, {int(storage.get('cache_evictions', 0))} "
        f"evictions)"
    )
    lines.append(
        f"resident {int(storage.get('cache_resident_pages', 0))} pages "
        f"(+{int(storage.get('pinned_pages', 0))} pinned vantage), "
        f"{storage.get('resident_fraction', 0.0) * 100:.1f}% of raw bytes "
        f"in RAM"
    )
    lines.append(
        f"cold reads {_fmt_bytes(storage.get('cold_read_bytes', 0))} in "
        f"{int(storage.get('cold_read_seeks', 0))} seeks; "
        f"{_fmt_bytes(storage.get('bytes_on_disk', 0))} on disk across "
        f"{int(storage.get('spilled_nodes', 0))} nodes "
        f"(x{storage.get('compression_ratio', 0.0):.2f} compression)"
    )
    return lines


def render_hotspots(profile: dict, width: int = 96, limit: int = 5) -> list[str]:
    """The hotspots panel: top pipeline stages and functions by sampled
    wall-clock share, from the live PROFILE snapshot the gateway ships in
    its ALERTS frame while a profiler is running."""
    lines = [_rule("hotspots", width)]
    sampling = profile.get("sampling") or {}
    samples = int(sampling.get("samples", 0))
    if not samples:
        lines.append("(profiler running; no stacks sampled yet)")
        return lines
    lines.append(
        f"{samples} stacks @ {sampling.get('hz', 0):g} Hz over "
        f"{sampling.get('elapsed_s', 0.0):.1f}s "
        f"(sampler overhead {100 * sampling.get('overhead', 0.0):.2f}%)"
    )
    stages = sampling.get("stages") or []
    if stages:
        shown = stages[:limit]
        lines.append("stages:    " + "  ".join(
            f"{row['stage']} {100 * row['share']:.1f}%" for row in shown
        ))
    functions = sampling.get("top_functions") or []
    for row in functions[:limit]:
        lines.append(
            f"  {100 * row['share']:5.1f}%  {row['function']}"
        )
    return lines


def render_slis(slis: dict, windows: Iterable[str], width: int = 96) -> list[str]:
    window_labels = list(windows)
    lines = [_rule("SLIs", width)]
    header = f"{'sli':<22}" + "".join(
        f"| {label:^28} " for label in window_labels
    )
    sub = f"{'':<22}" + "".join(
        f"| {'n':>5} {'good%':>6} {'p50':>7} {'p99':>7} "
        for _ in window_labels
    )
    lines.append(header)
    lines.append(sub)
    for name in sorted(slis):
        row = f"{name:<22}"
        for label in window_labels:
            stats = slis[name].get(label)
            if stats is None or not stats["count"]:
                row += f"| {'-':>5} {'-':>6} {'-':>7} {'-':>7} "
                continue
            row += (
                f"| {stats['count']:>5} {stats['good_ratio'] * 100:>5.1f}% "
                f"{stats['p50'] * 1e3:>6.2f}m {stats['p99'] * 1e3:>6.2f}m "
            )
        lines.append(row)
    if len(lines) == 3:
        lines.append("(no observations yet)")
    return lines


def render_transitions(transitions: list, width: int = 96,
                       limit: int = 8) -> list[str]:
    lines = [_rule("recent alert transitions", width)]
    for t in transitions[-limit:]:
        line = (
            f"{_fmt_ms(t['time'])}  {t['slo']:<16} "
            f"{t['from']:>8} -> {t['to']:<8}"
        )
        cause = t.get("cause")
        if cause:
            line += f"  suspect: {cause.get('kind')} {cause.get('actor')}"
        lines.append(line)
    if len(lines) == 1:
        lines.append("(none)")
    return lines


def render_events(events: list, width: int = 96, limit: int = 12) -> list[str]:
    lines = [_rule("event tail", width)]
    for event in events[-limit:]:
        when = event.get("sim_time")
        clock = _fmt_ms(when) if when is not None else "      wall"
        line = (
            f"{clock}  {event['kind']:>16}  "
            f"{event['actor']}: {event['message']}"
        )
        if event.get("trace_id"):
            line += f"  ({event['trace_id']})"
        lines.append(line)
    if len(lines) == 1:
        lines.append("(empty)")
    return lines


def render_frame(snapshot: dict, width: int = 96) -> str:
    """One full dashboard frame from a monitor snapshot dict."""
    firing = sorted(
        name for name, alert in snapshot.get("alerts", {}).items()
        if alert["state"] in ("warning", "critical")
    )
    banner = "FIRING: " + ", ".join(firing) if firing else "all objectives met"
    lines = [
        f"repro watch @ {_fmt_ms(snapshot.get('now', 0.0)).strip()}  -- {banner}",
        "",
    ]
    lines.extend(render_alerts(snapshot.get("alerts", {}), width))
    lines.append("")
    storage = snapshot.get("storage")
    if storage is not None:
        lines.extend(render_tier_cache(storage, width))
        lines.append("")
    profile = snapshot.get("profile")
    if profile is not None:
        lines.extend(render_hotspots(profile, width))
        lines.append("")
    lines.extend(render_slis(
        snapshot.get("slis", {}), snapshot.get("windows", []), width
    ))
    lines.append("")
    lines.extend(render_transitions(snapshot.get("transitions", []), width))
    lines.append("")
    lines.extend(render_events(snapshot.get("events", []), width))
    return "\n".join(lines)
