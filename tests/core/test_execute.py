"""A query's node-subqueries run as one :func:`repro.core.query.execute`
call right after routing; the simulator replays each node's share at the
node's service time.

Checked on deployments drawn from ``CHAOS_SEED``: every job of a fused call
equals the job run alone (anchors and priced ``NodeCost``) — RAM nodes at
replication 1 and 2, the part path, the walk path and m = 0, a node that
holds none of a window's named blocks, a node whose rotted block the
verified read drops — and a run counts on its nodes exactly what the same
run counts with nothing executed ahead.  A node that changes between its
query's route and its service (a bit flip, a crash and restart, a spill, a
new group member) is executed again at service time, and the run answers
and counts as if nothing had been executed ahead.
"""

from __future__ import annotations

import dataclasses
import os
import random

import numpy as np
import pytest

import repro.core.query as query_module
from repro.cluster.node import StorageNode
from repro.core.anchors import max_mismatches
from repro.core.params import QueryParams
from repro.core.query import _BatchRun, execute
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.health import HealthMonitor
from repro.obs.metrics import default_registry
from repro.obs.trace import TraceContext
from repro.scenario import answer_signature, build_deployment, planted_probes
from repro.seq import PROTEIN, random_set
from repro.tier import BlockCache, TierConfig

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: m = 1 at w = 8 (the part path), m = 4 (the walk), m = 0 (the walk)
PART, WALK, EXACT = (QueryParams(k=4, n=6, i=0.8), QueryParams(k=4, n=6, i=0.5),
                     QueryParams(k=4, n=6, i=0.9))


def deployment(seed: int, replication: int = 1):
    """A drawn deployment and five probes: four planted reads, one stray."""
    draw = random.Random(seed)
    mendel = build_deployment(
        draw.randrange(1000), (draw.randint(12, 20), draw.randint(90, 160)),
        group_count=draw.randint(2, 4),
        group_size=draw.randint(replication + 1, 3), replication=replication,
    )
    probes, _ = planted_probes(mendel, 4, draw.randrange(1000), spread=True)
    probes += list(random_set(count=1, length=60, alphabet=PROTEIN,
                              rng=draw.randrange(1000), id_prefix="stray"))
    return mendel, probes


class Calls:
    """Wraps the query module's ``execute``: keeps every call's jobs,
    other arguments and results, and whether routing made it."""

    def __init__(self, monkeypatch) -> None:
        self.calls = []
        self._ahead = False
        original, ahead = query_module.execute, _BatchRun._execute_ahead

        def recorded(jobs, *args):
            works = original(jobs, *args)
            self.calls.append((self._ahead, list(jobs), args, works))
            return works

        def executing_ahead(run, state, routing):
            self._ahead = True
            try:
                return ahead(run, state, routing)
            finally:
                self._ahead = False

        monkeypatch.setattr(query_module, "execute", recorded)
        monkeypatch.setattr(_BatchRun, "_execute_ahead", executing_ahead)

    def ahead(self) -> list:
        return [call[1:] for call in self.calls if call[0]]

    def at_service(self) -> list[str]:
        """The nodes executed at their service time."""
        return [node.node_id for ahead, jobs, _, _ in self.calls if not ahead
                for node, _ in jobs]


def no_execute_ahead(monkeypatch) -> None:
    """Every node-subquery runs at its node's service time."""
    monkeypatch.setattr(_BatchRun, "_execute_ahead",
                        lambda run, state, routing: None)


def node_counters(mendel) -> dict:
    registry = default_registry()
    return {
        **{node.node_id: (node.stats.queries_served, node.stats.corrupt_reads,
                          node.tree.adapter.pair_evaluations)
           for node in mendel.index.topology.nodes},
        **{group.group_id: (registry.value(
            "repro_distance_evaluations_total", group=group.group_id),)
           for group in mendel.index.topology.groups},
    }


def run(mendel, probes, params, **batch) -> tuple[list, dict]:
    """Each probe's answer, counters and stats (turnaround included), one
    ``run_batch`` a probe, and what the runs counted on nodes and groups."""
    before = node_counters(mendel)
    reports = [mendel.engine.run_batch([probe], params, **batch)[0]
               for probe in probes]
    after = node_counters(mendel)
    return ([(answer_signature(report, counters=True),
              dataclasses.asdict(report.stats)) for report in reports],
            {key: tuple(a - b for a, b in zip(value, before.get(key, (0, 0, 0))))
             for key, value in after.items()})


def first_hit(mendel, probes, params, monkeypatch) -> tuple[StorageNode, int]:
    """The first block a node's verified read checks for *probes*."""
    read = []
    lookup = StorageNode.verdicts
    with monkeypatch.context() as patch:
        patch.setattr(StorageNode, "verdicts",
                      lambda node, ids: read.append((node, ids)) or lookup(node, ids))
        for probe in probes:
            mendel.query(probe, params)
    return next((node, ids[0]) for node, ids in read if ids)


def rot_a_hit(mendel, probes, params, monkeypatch) -> int:
    node, block = first_hit(mendel, probes, params, monkeypatch)
    node.durable.corrupt_block(block, bit=5)
    return block


@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("params", [PART, WALK, EXACT], ids=["parts", "walk", "m0"])
def test_each_job_equals_the_job_run_alone(replication, params, monkeypatch):
    mendel, probes = deployment(SEED * 100 + replication, replication)
    rotten = rot_a_hit(mendel, probes, params, monkeypatch)
    calls = Calls(monkeypatch)
    for probe in probes:
        mendel.query(probe, params)
    searches, empty_windows, dropped = set(), 0, 0
    for jobs, args, works in calls.ahead():
        for (node, windows), work in zip(jobs, works):
            [one] = execute([(node, windows)], *args)
            assert (work.anchors, work.cost(node)) == (one.anchors, one.cost(node))
            searches.add(work.search)
            dropped += work.corrupt_reads
            if windows[0].candidates is not None:
                lanes, _, _ = node.named_rows([w.candidates for w in windows])
                empty_windows += len(windows) - np.unique(lanes).size
    assert max_mismatches(mendel.index.segment_length, params.i) == {
        PART: 1, WALK: 4, EXACT: 0}[params]
    assert searches == ({"parts"} if params is PART else {"vptree"})
    assert dropped > 0, f"the rotted block {rotten} was never dropped"
    assert calls.at_service() == []
    if params is PART:
        assert empty_windows > 0  # a node held none of a window's named blocks


@pytest.mark.parametrize("params", [PART, WALK], ids=["parts", "walk"])
def test_a_run_counts_what_the_service_time_run_counts(params, monkeypatch):
    """Answers, stats and node counters equal the same run on a twin
    deployment where every node-subquery ran at its service time."""
    results = []
    for ahead in (True, False):
        with monkeypatch.context() as patch:
            if not ahead:
                no_execute_ahead(patch)
            mendel, probes = deployment(SEED * 100 + 7, 2)
            rot_a_hit(mendel, probes, params, patch)
            results.append(run(mendel, probes, params))
    assert results[0] == results[1]
    assert any(counts[1] for counts in results[0][1].values())  # corrupt reads


# -- a node that changes mid-query ---------------------------------------------------


class Scripted:
    """One step on the run's clock through its autoscaler hook, the way a
    topology change reaches a running batch (a ``FaultSchedule`` has no
    spill or membership event)."""

    def __init__(self, at: float, action) -> None:
        self.at, self.action = at, action
        self.monitor = HealthMonitor.for_chaos_run(at)

    def tick_proc(self, sim, stop_at):
        yield self.at
        self.action()


def between_route_and_fanout(mendel, probe) -> tuple[float, float]:
    """When *probe*'s route ends (its subqueries run ahead then) and when
    its first group fans out to its nodes."""
    report = mendel.query(probe, PART, trace_ctx=TraceContext())
    return report.root_span.find("route").sim_end, min(
        span.sim_start for span in report.root_span.walk()
        if span.name.startswith("node:"))


def mid_query(kind: str, mendel, node: StorageNode, block: int,
              window: tuple[float, float]) -> dict:
    """The ``run_batch`` keywords that change *node* (or its group) inside
    *window*: after the query routed, before any node was sent it."""
    start, end = window
    at = (start + end) / 2
    if kind == "bit_flip":
        return {"faults": FaultSchedule(
            events=(FaultEvent.bit_flip(at, node.node_id, block, bit=1),),
            seed=SEED)}
    if kind == "crash_restart":
        third = (end - start) / 3
        return {"faults": FaultSchedule(
            events=(FaultEvent.crash(start + third, node.node_id),
                    FaultEvent.restart(end - third, node.node_id)),
            seed=SEED)}
    if kind == "spill":
        node.attach_tier(BlockCache(1 << 20), TierConfig(
            page_rows=16, alphabet_size=PROTEIN.size))
        return {"autoscaler": Scripted(at, node.spill)}
    assert kind == "expand_group"
    return {"autoscaler": Scripted(
        at, lambda: mendel.index.expand_group(node.group_id))}


@pytest.mark.parametrize("kind", ["bit_flip", "crash_restart", "spill",
                                  "expand_group"])
def test_a_node_changed_mid_query_is_executed_again(kind, monkeypatch):
    results, again = [], []
    for ahead in (True, False):
        with monkeypatch.context() as patch:
            mendel, probes = deployment(SEED * 100 + 11)
            node, block = first_hit(mendel, probes[:1], PART, patch)
            batch = mid_query(kind, mendel, node, block,
                              between_route_and_fanout(mendel, probes[0]))
            if not ahead:
                no_execute_ahead(patch)
            calls = Calls(patch)
            results.append(run(mendel, probes[:1], PART, **batch))
            executed = {n.node_id for jobs, _, _ in calls.ahead() for n, _ in jobs}
            again.append([n for n in calls.at_service() if n in executed])
    # Counters as the service-time run counts them; a metric's own tally
    # of evaluations computed (the third) also counts the re-execution.
    (answers, counted), (expected, counts) = results
    assert answers == expected
    assert {key: value[:2] for key, value in counted.items()} == {
        key: value[:2] for key, value in counts.items()}
    assert again[1] == []
    if kind == "expand_group":  # the members whose holdings moved
        assert again[0]
    else:
        assert again[0] == [node.node_id]
