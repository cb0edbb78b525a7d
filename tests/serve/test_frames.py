"""Malformed JSON-lines frames at the TCP gateway.

Every malformed frame — undecodable bytes, a JSON value that is not an
object, an unknown op, a wrong-typed value for any field of any op — answers
``invalid_request``, and the same connection then answers a HEALTH frame.
A line longer than ``MAX_LINE_BYTES`` answers ``invalid_request`` before the
server closes the connection.  Hypothesis draws the frames, seeded from
``CHAOS_SEED`` (the CI matrix knob).
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
