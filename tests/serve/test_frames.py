"""Malformed JSON-lines frames at the TCP gateway.

Every malformed frame — undecodable bytes, a JSON value that is not an
object, an unknown op, a wrong-typed value for any field of any op — answers
``invalid_request``, and the same connection then answers a HEALTH frame.
A line longer than ``MAX_LINE_BYTES`` answers ``invalid_request`` before the
server closes the connection.  Hypothesis draws the frames, seeded from
``CHAOS_SEED`` (the CI matrix knob).  One fixed frame per rejection pins
its ``message`` byte for byte (:data:`MESSAGES`).
"""

from __future__ import annotations

import json
import os
import socket

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import BackgroundServer

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

VERBS = (
    "query", "explain", "stats", "health", "metrics", "alerts", "scale",
    "profile", "analyze", "scrub", "recover",
)

#: JSON values by kind (numbers split into int and float, as Python reads them)
KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=12),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}

#: op -> field -> the kinds the field accepts
FIELDS = {
    "query": {
        "seq": {"str"},
        "params": {"object", "null"},
        "deadline": {"int", "float", "null"},
        "top": {"int", "null"},
        "allow_partial": {"bool"},
        "trace": {"bool"},
    },
    "explain": {"seq": {"str"}, "params": {"object", "null"}},
    "profile": {"action": {"str"}, "hz": {"int", "float", "null"}},
    "scrub": {"heal": {"bool"}},
    "recover": {"node": {"str", "null"}},
}

#: the fields an op needs before any other field is read
REQUIRED = {
    "query": {"seq": "MKVAWLAMKVAWLA"},
    "explain": {"seq": "MKVAWLAMKVAWLA"},
}

#: one value of each JSON kind, for the pinned rejection messages
SAMPLES = {
    "null": None, "bool": True, "int": 7, "float": 0.5, "str": "x",
    "array": [1, 2], "object": {"k": 1},
}

#: the rejections beyond a wrong-typed field, keyed like the field cases
OTHER_FRAMES = {
    ("query", "seq", "missing"): {"op": "query"},
    ("explain", "seq", "missing"): {"op": "explain"},
    ("explode", None, "op"): {"op": "explode"},
    ("query", "params", "unknown key"): {
        "op": "query", **REQUIRED["query"], "params": {"bogus": 1, "k": 4},
    },
    ("query", "params", "boolean"): {
        "op": "query", **REQUIRED["query"], "params": {"n": True},
    },
    ("query", "params", "zero gap costs"): {
        "op": "query", **REQUIRED["query"],
        "params": {"gap_open": 0, "gap_extend": 0},
    },
    ("query", "params", "NaN gap cost"): {
        "op": "query", **REQUIRED["query"], "params": {"gap_open": float("nan")},
    },
    ("query", "params", "radius scale"): {
        "op": "query", **REQUIRED["query"],
        "params": {"search_radius_scale": 0.5},
    },
    ("query", "params", "engine settings"): {
        "op": "query", **REQUIRED["query"],
        "params": {"tolerance": 1.0, "max_gapped_per_subject": 2},
    },
}

#: (op, field, kind) -> the invalid_request message, byte for byte
MESSAGES = {
    ("explain", "params", "array"): "params must be a JSON object, got list",
    ("explain", "params", "bool"): "params must be a JSON object, got bool",
    ("explain", "params", "float"): "params must be a JSON object, got float",
    ("explain", "params", "int"): "params must be a JSON object, got int",
    ("explain", "params", "str"): "params must be a JSON object, got str",
    ("explain", "seq", "array"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "bool"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "float"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "int"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "missing"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "null"): "explain needs a non-empty string 'seq'",
    ("explain", "seq", "object"): "explain needs a non-empty string 'seq'",
    ("explode", None, "op"): "unknown op 'explode'",
    ("profile", "action", "array"): "action must be a string, got [1, 2]",
    ("profile", "action", "bool"): "action must be a string, got True",
    ("profile", "action", "float"): "action must be a string, got 0.5",
    ("profile", "action", "int"): "action must be a string, got 7",
    ("profile", "action", "null"): "action must be a string, got None",
    ("profile", "action", "object"): "action must be a string, got {'k': 1}",
    ("profile", "hz", "array"): "hz must be a positive number, got [1, 2]",
    ("profile", "hz", "bool"): "hz must be a positive number, got True",
    ("profile", "hz", "object"): "hz must be a positive number, got {'k': 1}",
    ("profile", "hz", "str"): "hz must be a positive number, got 'x'",
    ("query", "allow_partial", "array"):
        "allow_partial must be a boolean, got [1, 2]",
    ("query", "allow_partial", "float"):
        "allow_partial must be a boolean, got 0.5",
    ("query", "allow_partial", "int"):
        "allow_partial must be a boolean, got 7",
    ("query", "allow_partial", "null"):
        "allow_partial must be a boolean, got None",
    ("query", "allow_partial", "object"):
        "allow_partial must be a boolean, got {'k': 1}",
    ("query", "allow_partial", "str"):
        "allow_partial must be a boolean, got 'x'",
    ("query", "deadline", "array"):
        "deadline must be a positive number, got [1, 2]",
    ("query", "deadline", "bool"):
        "deadline must be a positive number, got True",
    ("query", "deadline", "object"):
        "deadline must be a positive number, got {'k': 1}",
    ("query", "deadline", "str"):
        "deadline must be a positive number, got 'x'",
    ("query", "params", "array"): "params must be a JSON object, got list",
    ("query", "params", "bool"): "params must be a JSON object, got bool",
    ("query", "params", "boolean"):
        "bad query params: n must not be a boolean, got True",
    ("query", "params", "float"): "params must be a JSON object, got float",
    ("query", "params", "int"): "params must be a JSON object, got int",
    ("query", "params", "str"): "params must be a JSON object, got str",
    ("query", "params", "unknown key"): "unknown query params: bogus",
    ("query", "params", "zero gap costs"):
        "unknown query params: gap_extend, gap_open",
    ("query", "params", "NaN gap cost"): "unknown query params: gap_open",
    ("query", "params", "radius scale"):
        "unknown query params: search_radius_scale",
    ("query", "params", "engine settings"):
        "unknown query params: max_gapped_per_subject, tolerance",
    ("query", "seq", "array"): "query needs a non-empty string 'seq'",
    ("query", "seq", "bool"): "query needs a non-empty string 'seq'",
    ("query", "seq", "float"): "query needs a non-empty string 'seq'",
    ("query", "seq", "int"): "query needs a non-empty string 'seq'",
    ("query", "seq", "missing"): "query needs a non-empty string 'seq'",
    ("query", "seq", "null"): "query needs a non-empty string 'seq'",
    ("query", "seq", "object"): "query needs a non-empty string 'seq'",
    ("query", "top", "array"):
        "top must be a non-negative integer, got [1, 2]",
    ("query", "top", "bool"): "top must be a non-negative integer, got True",
    ("query", "top", "float"): "top must be a non-negative integer, got 0.5",
    ("query", "top", "object"):
        "top must be a non-negative integer, got {'k': 1}",
    ("query", "top", "str"): "top must be a non-negative integer, got 'x'",
    ("query", "trace", "array"): "trace must be a boolean, got [1, 2]",
    ("query", "trace", "float"): "trace must be a boolean, got 0.5",
    ("query", "trace", "int"): "trace must be a boolean, got 7",
    ("query", "trace", "null"): "trace must be a boolean, got None",
    ("query", "trace", "object"): "trace must be a boolean, got {'k': 1}",
    ("query", "trace", "str"): "trace must be a boolean, got 'x'",
    ("recover", "node", "array"): "node must be a string, got [1, 2]",
    ("recover", "node", "bool"): "node must be a string, got True",
    ("recover", "node", "float"): "node must be a string, got 0.5",
    ("recover", "node", "int"): "node must be a string, got 7",
    ("recover", "node", "object"): "node must be a string, got {'k': 1}",
    ("scrub", "heal", "array"): "heal must be a boolean, got [1, 2]",
    ("scrub", "heal", "float"): "heal must be a boolean, got 0.5",
    ("scrub", "heal", "int"): "heal must be a boolean, got 7",
    ("scrub", "heal", "null"): "heal must be a boolean, got None",
    ("scrub", "heal", "object"): "heal must be a boolean, got {'k': 1}",
    ("scrub", "heal", "str"): "heal must be a boolean, got 'x'",
}

HEALTH = b'{"op":"health","id":"after"}'

FRAMES = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def server(service):
    with BackgroundServer(service) as running:
        yield running


def exchange(server, frame: bytes) -> list[dict]:
    """Send *frame*, then a HEALTH frame, on one connection; both replies."""
    with socket.create_connection((server.host, server.port),
                                  timeout=30) as sock:
        sock.sendall(frame + b"\n" + HEALTH + b"\n")
        with sock.makefile("rb") as reader:
            return [json.loads(reader.readline()) for _ in range(2)]


def assert_rejected_then_healthy(server, frame: bytes) -> None:
    reply, health = exchange(server, frame)
    assert reply["ok"] is False, reply
    assert reply["error"] == "invalid_request", reply
    assert health["ok"] is True and health["id"] == "after", health


def names_a_verb(line: bytes) -> bool:
    try:
        message = json.loads(line)
    except ValueError:
        return False
    return isinstance(message, dict) and message.get("op") in VERBS


class TestMalformedFrames:
    @seed(SEED)
    @FRAMES
    @given(line=st.binary(max_size=64).filter(lambda b: b"\n" not in b))
    def test_undecodable_bytes(self, server, line):
        assume(not names_a_verb(line))
        assert_rejected_then_healthy(server, line)

    @seed(SEED)
    @FRAMES
    @given(value=st.one_of(
        *(KINDS[kind] for kind in sorted(KINDS) if kind != "object")
    ))
    def test_non_object_json(self, server, value):
        assert_rejected_then_healthy(server, json.dumps(value).encode())

    @seed(SEED)
    @FRAMES
    @given(op=st.one_of(
        st.text(max_size=12).filter(lambda op: op not in VERBS),
        *(KINDS[kind] for kind in sorted(KINDS) if kind != "str"),
    ))
    def test_unknown_op(self, server, op):
        assert_rejected_then_healthy(server, json.dumps({"op": op}).encode())

    @seed(SEED)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_wrong_typed_field(self, server, data):
        """Each field of each op, once per kind it does not accept."""
        for op, fields in sorted(FIELDS.items()):
            for name, accepted in sorted(fields.items()):
                for kind in sorted(set(KINDS) - accepted):
                    value = data.draw(KINDS[kind], label=f"{op}.{name}")
                    frame = {"op": op, **REQUIRED.get(op, {}), name: value}
                    assert_rejected_then_healthy(
                        server, json.dumps(frame).encode()
                    )

    def test_rejection_messages_are_pinned(self, server):
        """Each rejection's ``message`` equals its pinned text, byte for byte."""
        frames = {
            (op, name, kind): {
                "op": op, **REQUIRED.get(op, {}), name: SAMPLES[kind],
            }
            for op, fields in FIELDS.items()
            for name, accepted in fields.items()
            for kind in set(KINDS) - accepted
        }
        frames.update(OTHER_FRAMES)
        got = {
            key: exchange(server, json.dumps(frame).encode())[0]["message"]
            for key, frame in frames.items()
        }
        assert got == MESSAGES

    @pytest.mark.parametrize("case", ["zero gap costs", "NaN gap cost"])
    def test_bad_gap_costs_rejected_before_the_engine(self, server, case):
        """Gap costs are constants of the gapped pass, not params: a frame
        naming them answers ``invalid_request`` instead of running the query
        up to ``banded_extend``, and the server stays healthy."""
        frame = OTHER_FRAMES[("query", "params", case)]
        assert_rejected_then_healthy(server, json.dumps(frame).encode())

    def test_radius_scale_is_no_longer_a_param(self, server):
        """The lossless radius has no scale: the old field is an unknown
        param, rejected before the engine."""
        frame = OTHER_FRAMES[("query", "params", "radius scale")]
        assert_rejected_then_healthy(server, json.dumps(frame).encode())

    def test_engine_settings_are_not_params(self, server):
        """``params`` is Table I only: the walk tolerance and the gapped
        pass's budget are unknown params, rejected before the engine."""
        frame = OTHER_FRAMES[("query", "params", "engine settings")]
        assert_rejected_then_healthy(server, json.dumps(frame).encode())

    @seed(SEED)
    @settings(max_examples=4, deadline=None)
    @given(overshoot=st.integers(1, 1 << 16))
    def test_oversized_line_answers_then_closes(self, server, overshoot):
        line = b'{"op":"health","pad":"' + b"x" * MAX_LINE_BYTES + b'"}'
        line += b" " * overshoot
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(line + b"\n" + HEALTH + b"\n")
            with sock.makefile("rb") as reader:
                reply = json.loads(reader.readline())
                try:
                    rest = reader.read()
                except ConnectionResetError:  # closed with bytes unread
                    rest = b""
        assert reply["ok"] is False
        assert reply["error"] == "invalid_request"
        assert "too long" in reply["message"]
        assert rest == b"", "the connection answered past an oversized line"
