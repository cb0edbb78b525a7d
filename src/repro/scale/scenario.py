"""Autoscaling scenarios: traffic shapes that exercise the control loop.

Two canonical load stories drive the :class:`~repro.scale.controller.
AutoScaler` end to end on the simulation clock:

* **flash crowd** (:func:`run_flash_crowd_scenario`) — a calm warm-up,
  then a sustained burst arriving faster than the seed topology can
  serve.  Turnarounds blow past the latency objective, the SLO burns,
  the scaler splits/grows the hot group, throughput rises, the backlog
  drains, and the alert resolves *while the burst is still arriving* —
  the closed loop with no human input.
* **diurnal** (:func:`run_diurnal_scenario`) — sinusoidal arrival
  spacing over two day/night cycles: scale-out at the peaks, and (once
  enough calm ticks accumulate) merge/drain at the troughs, never below
  the deployment's configured shape.

Timing derives from a *calibration* run: a throwaway, identically seeded
deployment measures the single-query turnaround ``t_base``; the latency
objective and every arrival interval are multiples of it, so the story
holds across hardware profiles and parameter tweaks.  Everything else
derives from ``seed`` — two equal calls produce byte-identical event
logs (the ``CHAOS_SEED`` replay contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.regress import SIM_TOLERANCE, Metric
from repro.core.query import QueryReport
from repro.obs.events import EventLog, TOPOLOGY_KINDS
from repro.obs.health import HealthMonitor
from repro.scale.controller import AutoScaler
from repro.scale.policy import ScalerPolicy
from repro.scenario import PARAMS, build_deployment, drive, planted_probes


@dataclass
class ScaleScenarioResult:
    """Outcome of one autoscaling experiment."""

    #: scenario name ("flash_crowd" or "diurnal")
    scenario: str
    seed: int
    #: whether the controller was enabled for this run
    controller_enabled: bool
    #: per-query reports, in arrival order
    reports: list[QueryReport]
    #: calibrated single-query turnaround and latency objective
    t_base: float
    latency_threshold: float
    monitor: HealthMonitor
    #: the controller (``None`` when disabled)
    scaler: AutoScaler | None = None
    #: final topology: group id -> {"nodes": int, "blocks": int}
    final_topology: dict = field(default_factory=dict)

    @property
    def event_log(self) -> EventLog:
        return self.monitor.events

    @property
    def alert_transitions(self) -> list[dict]:
        return [t.to_dict() for t in self.monitor.slo_engine.transitions]

    @property
    def actions(self) -> list[dict]:
        return list(self.scaler.actions) if self.scaler is not None else []

    @property
    def topology_events(self) -> list[dict]:
        return [
            e for e in self.event_log.to_dicts()
            if e["kind"] in TOPOLOGY_KINDS
        ]

    def fired_at(self) -> float | None:
        """Time the first alert started firing, if any."""
        for t in self.alert_transitions:
            if t["to"] in ("warning", "critical"):
                return t["time"]
        return None

    def resolved_at(self) -> float | None:
        """Time the last firing alert resolved, if it did."""
        fired = self.fired_at()
        if fired is None:
            return None
        out = None
        for t in self.alert_transitions:
            if t["time"] >= fired and t["to"] in ("resolved", "ok"):
                out = t["time"]
        return out

    def loop_closed(self) -> bool:
        """The tentpole contract: an alert fired, the scaler acted, and
        the alert resolved afterwards with no human input."""
        fired = self.fired_at()
        resolved = self.resolved_at()
        if fired is None or resolved is None:
            return False
        acted = [a["at"] for a in self.actions if fired <= a["at"] <= resolved]
        return bool(acted)

    @property
    def mean_turnaround(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.stats.turnaround for r in self.reports) / len(self.reports)

    @property
    def p_max_turnaround(self) -> float:
        return max((r.stats.turnaround for r in self.reports), default=0.0)

    @property
    def degraded_queries(self) -> int:
        return sum(1 for r in self.reports if r.degraded)

    def summary_rows(self) -> list[tuple[str, str]]:
        """Key/value rows for tabular display (CLI and example)."""
        fired = self.fired_at()
        resolved = self.resolved_at()
        return [
            ("scenario", self.scenario),
            ("seed", str(self.seed)),
            ("controller", "on" if self.controller_enabled else "off"),
            ("queries", str(len(self.reports))),
            ("t_base", f"{self.t_base * 1e3:.3f} ms"),
            ("latency objective", f"{self.latency_threshold * 1e3:.3f} ms"),
            ("alert fired", f"{fired * 1e3:.3f} ms" if fired is not None
             else "never"),
            ("alert resolved", f"{resolved * 1e3:.3f} ms"
             if resolved is not None else "never"),
            ("scale actions", str(len(self.actions))),
            ("loop closed", "yes" if self.loop_closed() else "no"),
            ("mean turnaround", f"{self.mean_turnaround * 1e3:.3f} ms"),
            ("max turnaround", f"{self.p_max_turnaround * 1e3:.3f} ms"),
            ("final topology", ", ".join(
                f"{gid}:{info['nodes']}n/{info['blocks']}b"
                for gid, info in sorted(self.final_topology.items())
            )),
        ]

    def frame(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "controller": self.controller_enabled,
            "loop_closed": self.loop_closed(),
            "fired_at": self.fired_at(),
            "resolved_at": self.resolved_at(),
            "actions": self.actions,
            "topology_events": self.topology_events,
            "alert_transitions": self.alert_transitions,
            "final_topology": self.final_topology,
            "mean_turnaround": self.mean_turnaround,
            "max_turnaround": self.p_max_turnaround,
        }

    def checks(self) -> dict[str, bool]:
        """What ``repro autoscale --assert-loop`` demands: the loop closed
        by scaling *out*, the action is in the event log, and no query
        degraded mid-rebalance."""
        kinds = {e["kind"] for e in self.topology_events}
        return {
            "alert fired": self.fired_at() is not None,
            "alert resolved": self.resolved_at() is not None,
            "scaler acted inside the alert window": self.loop_closed(),
            "scaled out": any(a["action"] in ("split_group", "add_node")
                              for a in self.actions),
            "scale-out is in the event log":
                bool(kinds & {"group_split", "node_added"}),
            "no query degraded": self.degraded_queries == 0,
        }

    def bench_metrics(self) -> dict[str, dict[str, Metric]]:
        """The ``--bench-out`` workload: seed-exact sim numbers only."""
        return {
            f"autoscale-{self.scenario}": {
                "loop_closed": Metric(
                    1.0 if self.loop_closed() else 0.0, "bool", "stable", 0.0
                ),
                "scale_actions": Metric(
                    len(self.actions), "count", "stable", 0.0
                ),
                "degraded_queries": Metric(
                    self.degraded_queries, "count", "lower", 0.0
                ),
                "mean_turnaround": Metric(
                    self.mean_turnaround, "s", "lower", SIM_TOLERANCE
                ),
            }
        }


def _run(
    scenario: str,
    seed: int,
    controller: bool,
    corpus: tuple[int, int],
    group_count: int,
    policy: ScalerPolicy,
    traffic,
) -> ScaleScenarioResult:
    """Calibrate, shape the traffic, and drive it with the control loop on
    the clock.  *traffic* maps the calibrated single-query turnaround
    ``t_base`` to ``(arrival_times, fast_window)``."""
    shape = dict(group_count=group_count, group_size=2, replication=1)
    # Calibration runs on a throwaway identically-seeded deployment, which
    # keeps the scenario run's metrics and events clean.
    throwaway = build_deployment(seed, corpus, **shape)
    calibration, _ = planted_probes(throwaway, 1, seed + 9)
    report = throwaway.engine.run_batch(calibration, PARAMS)[0]
    t_base = max(report.stats.turnaround, 1e-9)
    latency_threshold = 1.5 * t_base
    arrival_times, fast_window = traffic(t_base)

    mendel = build_deployment(seed, corpus, **shape)
    probes, _ = planted_probes(mendel, len(arrival_times), seed + 100)
    horizon = arrival_times[-1] if arrival_times else 1.0
    monitor = HealthMonitor(
        windows=(fast_window, max(horizon, 4.0 * fast_window)),
        latency_threshold=latency_threshold,
        event_log=EventLog(),
        label=f"scale-{scenario}",
    )
    scaler = None
    if controller:
        scaler = AutoScaler(
            index=mendel.index,
            monitor=monitor,
            policy=policy,
            event_log=monitor.events,
        )
    run = drive(
        mendel, probes, f"scale-{scenario}", seed,
        arrival_times=arrival_times, monitor=monitor, autoscaler=scaler,
    )
    return ScaleScenarioResult(
        scenario=scenario,
        seed=seed,
        controller_enabled=controller,
        reports=run.reports,
        t_base=t_base,
        latency_threshold=latency_threshold,
        monitor=monitor,
        scaler=scaler,
        final_topology={
            g.group_id: {"nodes": len(g.nodes), "blocks": g.block_count}
            for g in mendel.index.topology.groups
        },
    )


def run_flash_crowd_scenario(
    seed: int = 0,
    controller: bool = True,
    database_size: int = 12,
    calm_queries: int = 4,
    burst_queries: int = 28,
    tail_queries: int = 8,
) -> ScaleScenarioResult:
    """Sustained overload: calm warm-up, a burst arriving at ``0.55 *
    t_base`` — faster than the seed topology serves, slower than the
    scaled one — then a decaying tail.  With the controller on, the
    alert fires early in the burst, the scaler splits and grows, the
    backlog drains, and the alert resolves while tail traffic is still
    arriving.
    """
    def traffic(t_base: float) -> tuple[list[float], float]:
        calm_interval = 8.0 * t_base
        burst_interval = 0.55 * t_base
        tail_interval = 2.5 * t_base
        arrivals = [i * calm_interval for i in range(calm_queries)]
        burst_start = arrivals[-1] + calm_interval if arrivals else 0.0
        arrivals += [
            burst_start + i * burst_interval for i in range(burst_queries)
        ]
        tail_start = arrivals[-1] + tail_interval if arrivals else 0.0
        arrivals += [
            tail_start + i * tail_interval for i in range(tail_queries)
        ]
        return arrivals, 6.0 * burst_interval

    policy = ScalerPolicy(
        cooldown_ticks=1,
        idle_ticks_before_scale_in=3,
        split_min_blocks=32,
    )
    return _run("flash_crowd", seed, controller, (database_size, 120), 1,
                policy, traffic)


def run_diurnal_scenario(
    seed: int = 0, controller: bool = True
) -> ScaleScenarioResult:
    """Two day/night cycles of 20 queries: arrival spacing swings
    sinusoidally between ``0.6 * t_base`` (peak) and ``8 * t_base``
    (trough), so the scaler grows node-by-node at the peaks and — after
    enough calm ticks — drains back down at the troughs, never below the
    configured shape.  Splits are disabled by the policy here: diurnal load
    is a *throughput* swing, not a skew change, so tier-2 elasticity is the
    right (and reversible) response.
    """
    queries_per_cycle, cycles = 20, 2

    def traffic(t_base: float) -> tuple[list[float], float]:
        lo, hi = 0.6 * t_base, 8.0 * t_base
        arrivals: list[float] = []
        now = 0.0
        for i in range(queries_per_cycle * cycles):
            # Phase runs trough -> peak -> trough each cycle; spacing is the
            # sinusoid's value at the *departure* point, so the peak packs
            # queries densely and the trough spreads them out.
            phase = 2.0 * math.pi * (i / queries_per_cycle)
            level = 0.5 * (1.0 - math.cos(phase))  # 0 at trough, 1 at peak
            arrivals.append(now)
            now += hi + (lo - hi) * level
        return arrivals, 5.0 * lo

    policy = ScalerPolicy(
        split_min_blocks=1_000_000_000,  # tier-2 only: add/drain nodes
        cooldown_ticks=1,
        idle_ticks_before_scale_in=2,
    )
    return _run("diurnal", seed, controller, (12, 120), 2, policy, traffic)
