"""Golden gateway sessions: frames in, byte-equal replies out.

Each ``sessions/<name>.jsonl`` file is a replayable wire session.  A line is
either ``{"frame": <request>, "reply": <expected reply>}`` or
``{"fault": {...}}``, a fault the test injects into the deployment between
two frames (``fail_node`` or ``corrupt_block``).  The test replays the file
through a real :class:`~repro.serve.server.QueryServer` on a socket, one
frame at a time, each sent after the previous reply, and requires the
regenerated file to equal the committed one byte for byte.

Everything a reply carries is fixed by the frames, the deployment recipe and
the stepped clock below.  Before the frame on line ``i`` the clock is set
to ``i * FRAME_GAP``, and every read advances it by ``CLOCK_STEP``.  Process
counters that earlier tests advance (trace ids, service labels) restart for
each session.  Nothing is masked, with one exception: :data:`LEFT_OUT`.

To regenerate after an intended wire change, run with
``REPRO_REGEN_SESSIONS=1`` and say so in the change's notes.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core import Mendel, MendelConfig
from repro.core.index import MendelIndex, TopologyChange
from repro.obs.events import EventLog
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.scale import ScalerPolicy
from repro.scale.policy import (
    ACTION_ADD_NODE,
    ACTION_MERGE_GROUPS,
    ACTION_REMOVE_NODE,
    ACTION_SPLIT_GROUP,
    ScaleDecision,
    ScaleSignals,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set
from repro.serve.protocol import encode
from repro.serve.server import BackgroundServer
from repro.serve.service import QueryService

pytestmark = pytest.mark.chaos

SESSIONS = Path(__file__).parent / "sessions"
REGENERATE = os.environ.get("REPRO_REGEN_SESSIONS") == "1"

#: Clock seconds between two frames.
FRAME_GAP = 5.0
#: Clock seconds each read advances; a query reads it three times, so its
#: wall latency is two steps and every query is over :data:`SLOW_AFTER`.
CLOCK_STEP = 0.001
SLOW_AFTER = 0.001

#: Reply fields no clock can fix, left out of the goldens, as op -> (reply
#: key, field): PROFILE's sampled stacks (a daemon thread samples them on
#: the host's real clock).
LEFT_OUT = {"profile": ("profile", "sampling")}


class SteppedClock:
    """A fake monotonic clock: ``set`` jumps it, each read steps it."""

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()

    def set(self, now: float) -> None:
        with self._lock:
            self._now = now

    def __call__(self) -> float:
        with self._lock:
            self._now += CLOCK_STEP
            return self._now


def build_service(clock, autoscale: bool = False) -> QueryService:
    """The sessions' deployment behind a fresh registry and event log.

    With *autoscale*, the monitor's shortest window is two frames wide, so
    the turnaround alert still sees the last slow queries when a read
    ticks it, and the scaler (interval: two monitor intervals) ticks on
    every other frame at most."""
    db = random_set(count=16, length=120, alphabet=PROTEIN, rng=41,
                    id_prefix="s")
    mendel = Mendel.build(
        db, MendelConfig(group_count=2, group_size=2, replication=2,
                         sample_size=128, seed=1),
    )
    events = EventLog()
    monitor = None
    if autoscale:
        monitor = HealthMonitor(
            windows=(2 * FRAME_GAP, 12 * FRAME_GAP, 60 * FRAME_GAP),
            latency_threshold=SLOW_AFTER, event_log=events, label="gateway",
        )
    service = QueryService(
        mendel,
        clock=clock,
        slow_query_threshold=SLOW_AFTER,
        registry=MetricsRegistry(),
        monitor=monitor,
        event_log=events,
    )
    if autoscale:
        # Every query is slow, so the turnaround alert fires and makes the
        # cluster hot; g00 holds 60 % of the blocks, so the scaler splits.
        service.enable_autoscaler(policy=ScalerPolicy(
            split_load_fraction=0.5, split_min_blocks=8, enable_scale_in=False,
        ))
    return service


def inject(service: QueryService, fault: dict) -> None:
    node = service.mendel.index.node(fault["node"])
    if fault["op"] == "fail_node":
        service.mendel.index.fail_node(node.node_id)
    elif fault["op"] == "corrupt_block":
        node.durable.corrupt_block(node.durable.manifest_ids()[0],
                                   bit=fault["bit"])
    else:
        raise ValueError(f"unknown fault {fault['op']!r}")


def leave_out(frame: dict, reply: dict) -> dict:
    if frame.get("op") in LEFT_OUT:
        key, inner = LEFT_OUT[frame["op"]]
        reply.get(key, {}).pop(inner, None)
    return reply


def run_session(service: QueryService, clock: SteppedClock,
                lines: list[str]) -> list[str]:
    """Send each line's frame after the previous reply (faults are injected
    on the engine worker, behind any queued tick); returns the session as
    replayed, one line per input line."""
    replayed = []
    try:
        with BackgroundServer(service) as server, socket.create_connection(
            (server.host, server.port), timeout=120
        ) as sock:
            stream = sock.makefile("rb")
            for index, line in enumerate(lines):
                entry = json.loads(line)
                if "fault" in entry:
                    service.on_engine(inject, service, entry["fault"]).result()
                    replayed.append(line)
                    continue
                clock.set(index * FRAME_GAP)
                sock.sendall(encode(entry["frame"]))
                reply = leave_out(entry["frame"], json.loads(stream.readline()))
                replayed.append(json.dumps({"frame": entry["frame"],
                                            "reply": reply}))
    finally:
        service.close()
    return replayed


@pytest.fixture()
def fresh_counters(monkeypatch):
    """Restart the process counters that trace ids and service labels
    draw from."""
    import repro.obs.trace as trace
    import repro.serve.stats as stats

    monkeypatch.setattr(trace, "_trace_ids", itertools.count(1))
    monkeypatch.setattr(stats, "_service_ids", itertools.count(0))


@pytest.mark.parametrize("name, autoscale", [
    ("gateway", False),
    ("autoscale", True),
])
def test_session_replays_byte_equal(name, autoscale, fresh_counters):
    path = SESSIONS / f"{name}.jsonl"
    committed = path.read_text()
    clock = SteppedClock()
    replayed = run_session(build_service(clock, autoscale), clock,
                           committed.splitlines())
    regenerated = "".join(f"{line}\n" for line in replayed)
    if REGENERATE:
        path.write_text(regenerated)
    else:
        assert regenerated == committed


#: Everything that changes what the index holds or where it holds it.
MUTATORS = {
    MendelIndex: ("expand_group", "remove_node", "split_group",
                  "merge_groups", "insert_sequences", "recover_node",
                  "rereplicate", "scrub"),
    TopologyChange: ("settle",),
}


@dataclass(frozen=True)
class EveryAction(ScalerPolicy):
    """Acts on every tick, in turn: grow g00, drain it, split it, merge the
    split-off group back."""

    #: the decisions made so far
    made: list = field(default_factory=list)

    def decide(self, signals: ScaleSignals) -> ScaleDecision:
        cycle = (
            ScaleDecision(ACTION_ADD_NODE, group="g00"),
            ScaleDecision(ACTION_REMOVE_NODE, group="g00"),
            ScaleDecision(ACTION_SPLIT_GROUP, group="g00"),
            ScaleDecision(ACTION_MERGE_GROUPS, group=max(signals.group_blocks),
                          target="g00"),
        )
        self.made.append(cycle[len(self.made) % len(cycle)])
        return self.made[-1]


def test_no_mutator_runs_off_the_engine_worker(monkeypatch):
    """Every op of the gateway session, with an autoscaler acting on every
    tick: each index mutation runs on the engine worker (the pool's
    ``repro-serve_<n>`` thread; the event loop's is ``repro-serve-server``)."""
    calls: list[tuple[str, str]] = []
    for owner, names in MUTATORS.items():
        for name in names:
            def guarded(*args, _run=getattr(owner, name), _name=name,
                        **kwargs):
                calls.append((_name, threading.current_thread().name))
                return _run(*args, **kwargs)

            monkeypatch.setattr(owner, name, guarded)
    clock = SteppedClock()
    service = build_service(clock)
    policy = EveryAction(cooldown_ticks=0)
    service.enable_autoscaler(policy=policy, interval=FRAME_GAP / 2)
    run_session(service, clock,
                (SESSIONS / "gateway.jsonl").read_text().splitlines())
    assert len(policy.made) == 8  # the session's ticking reads and SCALE
    off_engine = [(name, thread) for name, thread in calls
                  if not thread.startswith("repro-serve_")]
    assert off_engine == []
    # Every mutator but insert_sequences (no op inserts) ran at least once.
    assert {name for name, _ in calls} == {
        name for names in MUTATORS.values() for name in names
    } - {"insert_sequences"}
    assert not [e for e in service.monitor.events.events()
                if e.kind == "scale_failed"]
