"""Gateway elasticity: the SCALE verb and the lazily-ticked controller."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.scale import ScalerPolicy
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer


@pytest.fixture()
def scaled_service(mendel):
    svc = mendel.service(
        cache_capacity=0,
        event_log=EventLog(),
    )
    svc.enable_autoscaler(
        policy=ScalerPolicy(cooldown_ticks=0, enable_scale_in=False),
    )
    yield svc
    svc.close()


class TestScaleStatus:
    def test_disabled_by_default(self, mendel):
        with mendel.service(event_log=EventLog()) as svc:
            assert svc.scale_status() == {"enabled": False}

    def test_enable_is_idempotent(self, scaled_service):
        first = scaled_service.scaler
        assert scaled_service.enable_autoscaler() is first

    def test_status_ticks_the_loop(self, scaled_service):
        status = scaled_service.scale_status()
        assert status["enabled"]
        assert status["wall"]
        assert status["ticks"] >= 1
        assert "topology" in status
        again = scaled_service.scale_status()
        assert again["ticks"] >= status["ticks"]

    def test_read_paths_tick_lazily(self, scaled_service):
        scaled_service.health()
        scaled_service.alerts()
        scaled_service.snapshot()
        # The reads queue their ticks on the engine worker: drain it first.
        scaled_service.on_engine(lambda: None).result(timeout=30)
        assert len(scaled_service.scaler.decisions) >= 1

    def test_a_failing_queued_tick_emits_an_event(self, mendel):
        class Broken(ScalerPolicy):
            def decide(self, signals):
                raise RuntimeError("policy broke")

        events = EventLog()
        with mendel.service(cache_capacity=0, event_log=events) as svc:
            svc.enable_autoscaler(policy=Broken())
            assert svc.health()["status"] == "ok"
            svc.on_engine(lambda: None).result(timeout=30)
        failed = [e for e in events.events() if e.kind == "scale_failed"]
        assert len(failed) == 1
        assert "policy broke" in failed[0].message


class TestScaleWire:
    def test_scale_op_round_trip(self, scaled_service):
        with BackgroundServer(scaled_service) as server:
            client = ServeClient(server.host, server.port)
            try:
                response = client.call("scale")
                assert response["ok"]
                assert response["enabled"]
                assert response["ticks"] >= 1
            finally:
                client.close()

    def test_scale_op_when_disabled(self, mendel):
        with mendel.service(event_log=EventLog()) as svc:
            with BackgroundServer(svc) as server:
                client = ServeClient(server.host, server.port)
                try:
                    response = client.call("scale")
                    assert response["ok"]
                    assert response["enabled"] is False
                finally:
                    client.close()
