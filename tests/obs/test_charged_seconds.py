"""Every modelled second a node, a group aggregation, the route or the
gapped pass is charged comes from a cost-profile counter.

A node's service time is, per window, a search's distance evaluations plus
the request overhead, then the extension's residue operations, then the
cold reads' device time.  Rebuilt from the node charge's profile counters
(``distance_evals``, ``residues_compared``, ``cold_read_seeks``,
``cold_read_bytes``) and the subquery's window count at the node's unit
costs, it must equal the seconds the simulator advanced for that service.
A group's aggregation is charged ``4 x max(1, anchors collected)`` residue
operations, the anchors being the ``anchors_extended`` its nodes were
charged.  The route is charged its ``distance_evals`` plus ``key_lookups``
as evaluations at the system entry, and the gapped pass its
``residues_compared``.  Checked on RAM and spilled deployments drawn from
``CHAOS_SEED``, each routed by part keys (i = 0.8) and by the walk
(i = 0.5).
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.params import QueryParams
from repro.core.query import _BatchRun
from repro.obs.profile import CostProfiler, install_cost_profiler, uninstall_cost_profiler
from repro.scenario import build_deployment, planted_probes
from repro.seq import PROTEIN
from repro.tier import TierConfig

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))


class Charges(CostProfiler):
    """A cost profiler that also keeps each charge, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[str, dict]] = []

    def charge(self, stage: str, site: str, **costs: int) -> None:
        super().charge(stage, site, **costs)
        self.log.append((stage, costs))


def service_yields(process, on_service, after_event=True):
    """Wrap a ``_BatchRun`` process generator: *on_service* sees the first
    delay the process yields after its first event (the node's CPU lock, a
    group's gathered answers) — the seconds charged for that service — or,
    not *after_event*, the first delay it yields at all (the route's, the
    gapped pass's)."""

    def wrapped(run, *args):
        inner = process(run, *args)
        waited = served = False
        value = None
        while True:
            try:
                item = inner.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(item, float):
                if (waited or not after_event) and not served:
                    served = True
                    on_service(run, args, item)
            else:
                waited = True
            value = yield item

    return wrapped


def units(node) -> dict[str, float]:
    """A node's unit costs, read off its own cost functions."""
    per_eval = node.service_time(1) - node.service_time(0)
    out = {"request": node.service_time(0), "distance_evals": per_eval,
           "residues_compared": node.service_time_ops(1)}
    tier = node.tier
    out["cold_read_seeks"] = tier.io_seconds(1, 0) if tier else 0.0
    out["cold_read_bytes"] = tier.io_seconds(0, 1) if tier else 0.0
    return out


@pytest.mark.parametrize("spilled", [False, True], ids=["ram", "spilled"])
def test_node_and_aggregation_seconds_come_from_counters(spilled, monkeypatch):
    draw = random.Random(SEED * 10 + spilled)
    mendel = build_deployment(
        draw.randrange(1000), (draw.randint(12, 20), draw.randint(90, 160)),
        group_count=draw.randint(2, 4), group_size=draw.randint(2, 3),
        replication=draw.randint(1, 2),
    )
    if spilled:
        raw = sum(np.asarray(n.tree.points).nbytes for n in mendel.index.topology.nodes)
        mendel.spill(cache_bytes=raw // 10, config=TierConfig(
            page_rows=16, alphabet_size=PROTEIN.size))
    probes, _ = planted_probes(mendel, 3, draw.randrange(1000), spread=True)
    charges = install_cost_profiler(Charges())
    nodes, groups, aggregations = [], [], 0
    system = []  # (stage, costs, seconds, entry node) of route and gapped

    def system_served(run, args, seconds):
        stage, costs = charges.log[-1]
        system.append((stage, costs, seconds, run.entry))

    def node_served(run, args, seconds):
        _state, node, _coordinator, windows, _span = args
        stage, costs = charges.log[-1]
        assert stage == "node"
        nodes.append((node, len(windows), costs, seconds))

    def group_aggregated(run, args, seconds):
        _state, group, _windows, _span = args
        groups.append((group, seconds))

    monkeypatch.setattr(_BatchRun, "node", service_yields(_BatchRun.node, node_served))
    monkeypatch.setattr(_BatchRun, "group",
                        service_yields(_BatchRun.group, group_aggregated))
    for stage in ("_route", "_gapped"):
        monkeypatch.setattr(_BatchRun, stage, service_yields(
            getattr(_BatchRun, stage), system_served, after_event=False))
    paths = []
    try:
        for params in (QueryParams(k=4, n=6, i=0.8), QueryParams(k=4, n=6, i=0.5)):
            for probe in probes:
                before = len(nodes)
                report = mendel.query(probe, params)
                paths += [route.path for route in report.routes]
                collected = {}
                for node, _, costs, _ in nodes[before:]:
                    collected[node.group_id] = (collected.get(node.group_id, 0)
                                                + costs.get("anchors_extended", 0))
                for group, seconds in groups:
                    unit = units(group.entry_point())["residues_compared"]
                    assert seconds == pytest.approx(
                        4 * max(1, collected[group.group_id]) * unit, rel=1e-12)
                aggregations += len(groups)
                groups.clear()
    finally:
        uninstall_cost_profiler(charges)
    assert nodes and aggregations
    cold = 0
    for node, windows, costs, seconds in nodes:
        unit = units(node)
        rebuilt = windows * unit["request"] + sum(
            costs.get(name, 0) * unit[name]
            for name in ("distance_evals", "residues_compared",
                         "cold_read_seeks", "cold_read_bytes"))
        assert seconds == pytest.approx(rebuilt, rel=1e-12), node.node_id
        cold += costs.get("cold_read_seeks", 0)
    assert (cold > 0) == spilled
    assert set(paths) == {"parts", "walk"}
    stages = [stage for stage, _, _, _ in system]
    assert stages == ["route", "gapped"] * (len(system) // 2) and stages
    for stage, costs, seconds, entry in system:
        if stage == "route":
            assert seconds == entry.service_time(
                costs["distance_evals"] + costs["key_lookups"])
            assert (costs["key_lookups"] > 0) != (costs["distance_evals"] > 0)
        else:
            assert seconds == entry.service_time_ops(costs["residues_compared"])
