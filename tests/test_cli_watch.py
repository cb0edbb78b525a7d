"""Tests for the ``repro watch`` dashboard and ``repro call alerts``."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main


class TestWatchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.command == "watch"
        assert not args.gateway
        assert not args.once
        assert args.format == "text"
        assert args.replication == 1
        assert args.seed is None

    def test_call_accepts_alerts(self):
        args = build_parser().parse_args(["call", "alerts"])
        assert args.op == "alerts"


class TestWatchScenario:
    def test_once_json_reports_full_alert_cycle(self, tmp_path):
        artifact = tmp_path / "events.json"
        out = io.StringIO()
        code = main(
            ["watch", "--once", "--format", "json", "--seed", "0",
             "--assert-cycle", "availability",
             "--event-log", str(artifact)],
            out=out,
        )
        assert code == 0
        frame = json.loads(out.getvalue())
        assert frame["seed"] == 0
        assert frame["firing"] == []  # cluster recovered by run end
        cycle = [(t["slo"], t["to"]) for t in frame["transitions"]]
        assert ("availability", "critical") in cycle
        assert ("availability", "resolved") in cycle
        events = json.loads(artifact.read_text())
        assert {e["kind"] for e in events} >= {"crash", "query", "alert"}

    def test_once_text_renders_dashboard(self):
        out = io.StringIO()
        code = main(["watch", "--once", "--seed", "0"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "== alerts ==" in text
        assert "availability" in text
        assert "== recent alert transitions ==" in text

    def test_assert_cycle_fails_when_replication_masks_the_kill(self):
        out = io.StringIO()
        code = main(
            ["watch", "--once", "--format", "json", "--seed", "0",
             "--replication", "2", "--assert-cycle", "availability"],
            out=out,
        )
        # Replication 2 masks the kill entirely: nothing fires.
        assert code == 1


class TestWatchGateway:
    @pytest.fixture(scope="class")
    def gateway(self, mendel):
        from repro.serve.server import BackgroundServer

        service = mendel.service()
        with BackgroundServer(service) as server:
            yield server
        service.close()

    def test_gateway_once_json(self, gateway):
        out = io.StringIO()
        code = main(
            ["watch", "--gateway", "--once", "--format", "json",
             "--host", gateway.host, "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        frame = json.loads(out.getvalue())
        assert "alerts" in frame and "slis" in frame and "firing" in frame

    def test_gateway_once_text(self, gateway):
        out = io.StringIO()
        code = main(
            ["watch", "--gateway", "--once",
             "--host", gateway.host, "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        assert "== alerts ==" in out.getvalue()

    def test_call_alerts_over_the_wire(self, gateway):
        out = io.StringIO()
        code = main(
            ["call", "alerts", "--host", gateway.host,
             "--port", str(gateway.port)],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["ok"]
        assert "alerts" in payload and "firing" in payload

    def test_unreachable_gateway_is_structured(self):
        out = io.StringIO()
        code = main(
            ["watch", "--gateway", "--once", "--port", "1",
             "--timeout", "0.2"],
            out=out,
        )
        assert code == 1
