"""Trace layer: span trees, the null span, exporters, the shared timer."""

from __future__ import annotations

import json

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.timer import Stopwatch
from repro.obs.trace import NO_SPAN, Span, TraceContext


def _sample_trace() -> TraceContext:
    ctx = TraceContext(trace_id="t-test")
    root = ctx.begin("query", sim_now=0.0, actor="client")
    route = root.child("route", sim_now=0.0, actor="entry")
    route.finish(sim_now=0.001)
    fanout = root.child("fanout", sim_now=0.001, actor="entry")
    node = fanout.child("node:g00.n0", sim_now=0.001, actor="g00.n0")
    node.annotate(evals=42)
    node.finish(sim_now=0.005)
    fanout.finish(sim_now=0.005)
    root.finish(sim_now=0.006)
    return ctx


class TestSpanTree:
    def test_parent_child_ids(self):
        ctx = _sample_trace()
        root = ctx.root
        assert root.parent_id is None
        assert all(child.parent_id == root.span_id for child in root.children)
        assert all(span.trace_id == "t-test" for span in ctx.spans())

    def test_span_ids_unique_and_deterministic(self):
        ctx = _sample_trace()
        ids = [span.span_id for span in ctx.spans()]
        assert len(set(ids)) == len(ids)
        again = _sample_trace()
        assert [s.span_id for s in again.spans()] == ids

    def test_sim_duration(self):
        ctx = _sample_trace()
        assert ctx.root.sim_duration == 0.006
        assert ctx.root.find("route").sim_duration == 0.001

    def test_unfinished_span_has_zero_duration(self):
        ctx = TraceContext()
        root = ctx.begin("open", sim_now=1.0)
        assert root.sim_duration == 0.0
        assert root.wall_duration == 0.0

    def test_finish_is_idempotent_on_wall_clock(self):
        ctx = TraceContext()
        root = ctx.begin("q", sim_now=0.0)
        root.finish(sim_now=1.0)
        first_wall = root.wall_end
        root.finish(sim_now=2.0)
        assert root.wall_end == first_wall
        assert root.sim_end == 2.0  # sim stamp may be corrected

    def test_walk_and_find(self):
        ctx = _sample_trace()
        names = [span.name for span in ctx.root.walk()]
        assert names == ["query", "route", "fanout", "node:g00.n0"]
        assert ctx.root.find("node:g00.n0").attrs["evals"] == 42
        assert ctx.root.find("missing") is None

    def test_second_begin_nests_under_root(self):
        ctx = TraceContext()
        root = ctx.begin("first", sim_now=0.0)
        second = ctx.begin("second", sim_now=1.0)
        assert ctx.root is root
        assert second.parent_id == root.span_id
        assert second in root.children

    def test_to_dict_excludes_wall_clock(self):
        payload = _sample_trace().root.to_dict()
        text = json.dumps(payload)
        assert "wall" not in text
        assert payload["name"] == "query"
        assert payload["children"][1]["children"][0]["attrs"]["evals"] == 42

    def test_format_tree_lines(self):
        text = _sample_trace().root.format_tree()
        lines = text.splitlines()
        assert len(lines) == 4
        assert "query" in lines[0]
        assert "evals=42" in lines[3]


class TestNullSpan:
    def test_absorbs_everything(self):
        span = NO_SPAN.child("x", sim_now=1.0, attr=1)
        assert span is NO_SPAN
        span.annotate(anything="goes")
        assert span.finish(sim_now=2.0) is NO_SPAN

    def test_falsy_vs_real_span(self):
        assert not NO_SPAN
        ctx = TraceContext()
        assert ctx.begin("real")


class TestChromeExport:
    def test_event_fields(self):
        events = chrome_trace_events([_sample_trace().root])
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4
        for event in complete:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event
        root_event = next(e for e in complete if e["name"] == "query")
        assert root_event["dur"] == 6000.0  # 6 ms in microseconds

    def test_actors_get_thread_rows(self):
        events = chrome_trace_events([_sample_trace().root])
        meta = [e for e in events if e["ph"] == "M"]
        named = {e["args"]["name"] for e in meta}
        assert named == {"client", "entry", "g00.n0"}
        tids = {e["tid"] for e in meta}
        assert len(tids) == len(meta)

    def test_span_identity_in_args(self):
        events = chrome_trace_events([_sample_trace().root])
        node = next(e for e in events if e["name"] == "node:g00.n0")
        assert node["args"]["trace_id"] == "t-test"
        assert node["args"]["evals"] == 42
        assert "parent_id" in node["args"]
        assert "actor" not in node["args"]

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), [_sample_trace().root])
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"

    def test_unstamped_spans_are_skipped(self):
        ctx = TraceContext()
        root = ctx.begin("wall-only")  # no sim_now
        root.finish()
        assert chrome_trace_events([root]) == []


class TestStopwatch:
    def test_lap_callback_feeds_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("laps", "").labels()
        watch = Stopwatch(on_lap=hist.observe)
        with watch:
            pass
        with watch:
            pass
        assert hist.count == 2
        assert hist.sum == watch.elapsed
        assert len(watch.laps) == 2
