"""The two-sided profiler: stage context, sampling, deterministic cost.

Covers the PR's determinism contract: cost profiles replay
byte-identically under one ``CHAOS_SEED`` (the CI matrix knob), per-stage
cost charges tile the EXPLAIN funnel exactly, and the sampling profiler's
self-measured overhead stays inside the tracing-overhead gate's 5%
budget.  The Chrome-trace category satellite (attr-driven ``cat``) is
asserted here too, since the emit site is the ``cold_read`` span.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.bench.workloads import (
    FamilySpec,
    generate_family_database,
    generate_read_queries,
)
from repro.core.framework import Mendel
from repro.core.params import MendelConfig, QueryParams
from repro.obs import profile as profmod
from repro.obs.export import chrome_trace_events
from repro.obs.profile import (
    COST_COUNTERS,
    CostProfiler,
    Profiler,
    SamplingProfiler,
    install_cost_profiler,
    uninstall_cost_profiler,
)
from repro.obs.trace import TraceContext

SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def deployment():
    spec = FamilySpec(families=10, members_per_family=3, length=120)
    database = generate_family_database(spec, rng=SEED)
    mendel = Mendel.build(
        database, MendelConfig(group_count=2, group_size=2, seed=SEED)
    )
    return database, mendel


def _run_costed(database, mendel, n_queries: int = 2) -> CostProfiler:
    params = QueryParams(k=8, n=6, i=0.8)
    queries = list(
        generate_read_queries(
            database, n_queries, 300, rng=SEED + 300, id_prefix="prof"
        )
    )
    cost = install_cost_profiler(CostProfiler())
    try:
        reports = [mendel.query(q, params) for q in queries]
    finally:
        uninstall_cost_profiler(cost)
    return cost, reports


class TestStageContext:
    def test_stage_of_strips_instance_suffix(self):
        assert profmod.stage_of("node:n004") == "node"
        assert profmod.stage_of("query:q1") == "query"
        assert profmod.stage_of("route") == "route"

    def test_span_hooks_noop_without_samplers(self):
        profmod.span_opened("node:n1")
        assert profmod.current_stage() is None

    def test_open_close_tracks_innermost_stage(self):
        sampler = SamplingProfiler(hz=1)
        profmod._samplers.append(sampler)  # registered without the thread
        try:
            profmod.span_opened("query:q1")
            profmod.span_opened("node:n1")
            assert profmod.current_stage() == "node"
            # out-of-LIFO close (sim generators interleave): pops the
            # matching entry, not the top
            profmod.span_opened("gapped")
            profmod.span_closed("node:n1")
            assert profmod.current_stage() == "gapped"
            profmod.span_closed("gapped")
            profmod.span_closed("query:q1")
            assert profmod.current_stage() is None
        finally:
            profmod._samplers.remove(sampler)
            profmod._stage_stacks.pop(threading.get_ident(), None)


class TestCostProfiler:
    def test_rejects_unknown_counters(self):
        cost = CostProfiler()
        with pytest.raises(ValueError, match="unknown cost counter"):
            cost.charge("node", "site", made_up=1)

    def test_charges_accumulate_per_stage_and_site(self):
        cost = CostProfiler()
        cost.charge("node", "a", distance_evals=3, cache_hits=1)
        cost.charge("node", "a", distance_evals=2)
        cost.charge("tier", "b", cache_misses=4)
        assert cost.charges()[("node", "a")] == {
            "distance_evals": 5, "cache_hits": 1,
        }
        assert cost.stage_totals()["tier"] == {"cache_misses": 4}
        assert cost.counter_totals()["distance_evals"] == 5

    def test_funnel_counters_are_cost_counters(self):
        assert set(profmod.FUNNEL_COUNTERS) <= set(COST_COUNTERS)

    def test_per_stage_costs_tile_the_explain_funnel(self, deployment):
        """The tentpole contract: summing each funnel counter across every
        (stage, site) cell reproduces the engine's funnel exactly."""
        database, mendel = deployment
        cost, reports = _run_costed(database, mendel)
        expected: dict[str, int] = {}
        for report in reports:
            for stage, count in report.stats.funnel():
                expected[stage] = expected.get(stage, 0) + count
        assert cost.funnel_totals() == expected

    def test_cost_profile_replays_byte_identically(self, deployment):
        """Same CHAOS_SEED, same workload -> identical canonical bytes."""
        database, mendel = deployment
        first, _ = _run_costed(database, mendel)
        second, _ = _run_costed(database, mendel)
        assert first.to_json() == second.to_json()
        # and the serialisation is canonical JSON, not merely equal dicts
        assert json.loads(first.to_json()) == first.to_dict()

    def test_charge_helper_noop_when_uninstalled(self):
        profmod.charge("node", "nowhere", distance_evals=10**9)  # no raise


class TestSamplingProfiler:
    def test_rejects_non_positive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_sampler_smoke_overhead_under_budget(self, deployment):
        """Sampling at the default rate must cost well under the CI
        tracing-overhead gate's 5% budget, by its own measurement."""
        database, mendel = deployment
        params = QueryParams(k=8, n=6, i=0.8)
        queries = list(
            generate_read_queries(
                database, 2, 600, rng=SEED + 600, id_prefix="samp"
            )
        )
        sampler = SamplingProfiler().start()
        try:
            for _ in range(2):
                for record in queries:
                    mendel.query(record, params, trace_ctx=TraceContext())
            time.sleep(0.05)
        finally:
            sampler.stop()
        snap = sampler.snapshot()
        assert snap["samples"] > 0
        assert snap["overhead"] < 0.05
        # collapsed stacks: stage-tagged frames, then an integer count
        lines = sampler.folded().splitlines()
        assert lines and all(
            line.startswith("stage:") and line.rsplit(" ", 1)[1].isdigit()
            for line in lines
        )
        # stacks were tagged with real pipeline stages, not just "idle"
        stages = {row["stage"] for row in snap["stages"]}
        assert stages & {"node", "gapped", "route", "query", "fanout"}
        assert snap["top_functions"]

    def test_folded_and_speedscope_exports(self):
        sampler = SamplingProfiler(hz=50)
        with sampler._lock:
            sampler._stacks[("node", ("a (f.py:1)", "b (f.py:9)"))] = 3
            sampler._stacks[("idle", ("a (f.py:1)",))] = 1
            sampler._samples = 4
        folded = sampler.folded()
        assert "stage:node;a (f.py:1);b (f.py:9) 3" in folded
        assert folded == "\n".join(sorted(folded.splitlines())) + "\n"
        doc = sampler.speedscope(name="t")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) == 2
        assert sum(profile["weights"]) == 4
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert "stage:node" in names

    def test_stage_shares_and_top_functions_ranked(self):
        sampler = SamplingProfiler(hz=50)
        with sampler._lock:
            sampler._stacks[("node", ("x (f.py:1)",))] = 6
            sampler._stacks[("gapped", ("y (f.py:2)",))] = 2
        shares = sampler.stage_shares()
        assert [row["stage"] for row in shares] == ["node", "gapped"]
        assert shares[0]["share"] == 0.75
        top = sampler.top_functions(1)
        assert top[0]["function"] == "x (f.py:1)"


class TestCombinedProfiler:
    def test_lifecycle_and_snapshot_shape(self):
        profiler = Profiler(hz=50)
        assert not profiler.running
        profiler.start()
        try:
            assert profiler.running
            assert profiler.cost in profmod._cost_profilers
            snap = profiler.snapshot()
            assert snap["running"]
            assert "sampling" in snap and "cost" in snap
        finally:
            final = profiler.stop()
        assert not profiler.running
        assert profiler.cost not in profmod._cost_profilers
        assert final["running"] is False

    def test_write_profile_artifacts(self, tmp_path):
        profiler = Profiler(hz=50)
        profiler.cost.charge("node", "s", distance_evals=1)
        with profiler.sampler._lock:
            profiler.sampler._stacks[("node", ("a (f.py:1)",))] = 2
        paths = profmod.write_profile_artifacts(str(tmp_path), profiler)
        cost = json.loads((tmp_path / "PROFILE.json").read_text())
        assert cost["counters"]["node"]["s"]["distance_evals"] == 1
        folded = (tmp_path / "profile.folded").read_text()
        assert folded == "stage:node;a (f.py:1) 2\n"
        speed = json.loads((tmp_path / "profile.speedscope.json").read_text())
        assert speed["profiles"][0]["type"] == "sampled"
        assert set(paths) == {"cost", "folded", "speedscope"}


class TestChromeTraceCategory:
    """Satellite: exporter category comes from attrs, not the span name."""

    def test_category_attr_drives_cat_and_is_excluded_from_args(self):
        ctx = TraceContext()
        root = ctx.begin("query:q1", sim_now=0.0, actor="client")
        child = root.child("custom_io", sim_now=0.1, category="io", bytes=7)
        child.finish(sim_now=0.2)
        root.finish(sim_now=0.3)
        events = {
            e["name"]: e for e in chrome_trace_events([root])
            if e["ph"] == "X"
        }
        assert events["custom_io"]["cat"] == "io"
        assert events["query:q1"]["cat"] == "sim"
        assert "category" not in events["custom_io"]["args"]
        assert events["custom_io"]["args"]["bytes"] == 7

    def test_name_based_classification_is_gone(self):
        """A span *named* cold_read but without the attr is plain "sim":
        the emit site, not the exporter, owns the category now."""
        ctx = TraceContext()
        root = ctx.begin("cold_read", sim_now=0.0)
        root.finish(sim_now=0.1)
        (event,) = [e for e in chrome_trace_events([root]) if e["ph"] == "X"]
        assert event["cat"] == "sim"
