"""The JSON-lines wire protocol shared by the server and client.

One request per line, one response per line, UTF-8 JSON objects:

Requests::

    {"op": "query", "id": "q1", "seq": "MKV...", "params": {"n": 8},
     "deadline": 2.0, "top": 5, "allow_partial": false, "trace": true}
    {"op": "explain", "id": "q2", "seq": "MKV...", "params": {"n": 8}}
    {"op": "stats"}
    {"op": "health"}
    {"op": "metrics"}
    {"op": "alerts"}
    {"op": "scale"}
    {"op": "scrub", "heal": true}
    {"op": "recover", "node": "n003"}
    {"op": "analyze"}
    {"op": "profile", "action": "start", "hz": 67}

Each op's fields are declared once, in :data:`OPS`: their defaults, their
checks and the order they are checked in.  :func:`parse_request` is the
only request validator; ``repro call`` builds its frames from the same
table.

Responses::

    {"id": "q1", "ok": true, "cached": false, "trace_id": "t0000000007",
     "query_id": "q1", "alignments": [...], "coverage": 1.0,
     "degraded": false, "failed_nodes": [], "stats": {...}}
    {"id": "q1", "ok": false, "error": "overloaded", "message": "..."}
    {"ok": true, "content_type": "text/plain; version=0.0.4",
     "metrics": "# HELP repro_queries_total ...\n..."}

Every query response carries the ``trace_id`` of the span tree recorded
for the request (``null`` when tracing is off or the answer was served
from cache without a recorded trace); ``"trace": true`` additionally
returns the span tree itself under ``"trace"``.  ``{"op": "metrics"}``
returns the shared registry's Prometheus text exposition.
``{"op": "health"}`` includes the firing-alert list (and flips ``status``
to ``"alerting"`` when objectives are burning); ``{"op": "alerts"}``
returns the gateway monitor's full frame — rolling SLI windows, per-SLO
alert states with correlated causes and trace ids, recent transitions,
and the event tail.  ``{"op": "scale"}`` returns the autoscaler's status
frame (decision history, executed topology actions, current topology) or
``{"enabled": false}`` when the gateway runs without one; reading it also
ticks the lazy control loop, like HEALTH/ALERTS tick the monitor.
``{"op": "profile"}`` drives the continuous profiler (``action`` is
``start``, ``snapshot``, or ``stop``; ``hz`` sets the sampling rate on
start) and returns the profile frame under ``"profile"`` — sampled stage
shares, top functions, self-measured overhead, and the deterministic
cost profile.

``{"op": "analyze"}`` clusters the slow-query log into trace families and
merges their critical paths.  ``{"op": "scrub"}`` runs one anti-entropy
pass over every replica copy (``heal`` streams confirmed-corrupt copies
back from verified replicas; default true), and ``{"op": "recover"}``
restarts a crashed node from durable state (``node`` names it; without it,
every dead node); each node's replay report counts the rows it read from a
spilled node's block file as ``tier_blocks``.

``{"op": "explain"}`` runs the query once with tracing attached (bypassing
the cache) and returns the structured
:class:`~repro.core.explain.QueryPlan` under ``"plan"`` — routing, fan-out,
and the per-stage attrition funnel — plus its rendered form under
``"rendered"``.

``allow_partial`` (default true) controls degraded-mode behaviour: under
node failures a query may cover only part of the index; with
``allow_partial: false`` such an answer becomes an ``{"error": "degraded"}``
response instead of a best-effort result.

``params`` accepts the :class:`~repro.core.params.QueryParams` fields by
name, which are Table I's eight; unknown names are an ``invalid_request``
error rather than silently ignored.  No field of any op takes a JSON
boolean where it expects a number: ``"deadline": true`` is an
``invalid_request``, not a one-second deadline.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable

from repro.align.result import Alignment
from repro.core.params import QueryParams
from repro.core.query import QueryReport
from repro.serve.errors import InvalidRequest

#: Longest accepted request/response line (guards the asyncio reader too).
MAX_LINE_BYTES = 4 * 1024 * 1024

_PARAM_FIELDS = {field.name for field in dataclasses.fields(QueryParams)}


def encode(message: dict) -> bytes:
    """One wire line for *message* (newline-terminated UTF-8 JSON)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a message dict; structured error on junk."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidRequest(f"undecodable request line: {exc}") from None
    if not isinstance(message, dict):
        raise InvalidRequest(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- request fields --------------------------------------------------------------
# A check takes a field's name and wire value and returns what the op's
# handler receives, or raises the field's ``invalid_request``.


def _params(_name: str, raw: dict | None) -> QueryParams:
    """:class:`QueryParams` from wire knobs, validated strictly."""
    if raw is None:
        return QueryParams()
    if not isinstance(raw, dict):
        raise InvalidRequest(
            f"params must be a JSON object, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - _PARAM_FIELDS)
    if unknown:
        raise InvalidRequest(f"unknown query params: {', '.join(unknown)}")
    # No QueryParams field is a flag; Python would read ``true`` as 1.
    flags = sorted(
        name for name, value in raw.items() if isinstance(value, bool)
    )
    if flags:
        raise InvalidRequest(
            f"bad query params: {flags[0]} must not be a boolean, "
            f"got {raw[flags[0]]!r}"
        )
    try:
        return QueryParams(**raw)
    except (TypeError, ValueError) as exc:
        raise InvalidRequest(f"bad query params: {exc}") from None


def _sequence(op: str) -> Callable:
    def check(_name: str, value):
        if not isinstance(value, str) or not value:
            raise InvalidRequest(f"{op} needs a non-empty string 'seq'")
        return value

    return check


def _must_be(expected: str, ok: Callable[[object], bool]) -> Callable:
    """The check that passes what *ok* accepts and otherwise answers
    ``"<field> must be <expected>, got <value>"``."""

    def check(name: str, value):
        if not ok(value):
            raise InvalidRequest(f"{name} must be {expected}, got {value!r}")
        return value

    return check


def _number(value) -> bool:
    # A JSON boolean is not a number, though Python reads ``true`` as 1.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_BOOLEAN = _must_be("a boolean", lambda value: isinstance(value, bool))
_STRING = _must_be("a string", lambda value: isinstance(value, str))
_STRING_OR_NULL = _must_be(
    "a string", lambda value: value is None or isinstance(value, str)
)
_POSITIVE_OR_NULL = _must_be(
    "a positive number",
    lambda value: value is None or (_number(value) and 0 < value < math.inf),
)
_COUNT_OR_NULL = _must_be(
    "a non-negative integer",
    lambda value: value is None
    or (_number(value) and isinstance(value, int) and value >= 0),
)

#: op -> its fields in the order they are checked: name -> (default, check).
#: A field the request leaves out is checked at its default; the first
#: check that fails is the request's ``invalid_request`` reply.
OPS: dict[str, dict[str, tuple[object, Callable]]] = {
    "query": {
        "seq": (None, _sequence("query")),
        "params": (None, _params),
        "deadline": (None, _POSITIVE_OR_NULL),
        "top": (None, _COUNT_OR_NULL),
        "allow_partial": (True, _BOOLEAN),
        "trace": (False, _BOOLEAN),
    },
    "explain": {"seq": (None, _sequence("explain")), "params": (None, _params)},
    "stats": {},
    "health": {},
    "metrics": {},
    "alerts": {},
    "scale": {},
    "scrub": {"heal": (True, _BOOLEAN)},
    "recover": {"node": (None, _STRING_OR_NULL)},
    "analyze": {},
    "profile": {"action": ("snapshot", _STRING), "hz": (None, _POSITIVE_OR_NULL)},
}


def parse_request(message: dict) -> tuple[str, dict]:
    """The op a decoded request names and its checked fields, defaults
    filled in; raises :class:`InvalidRequest` for an unknown op or for the
    first field, in :data:`OPS` order, that fails its check."""
    op = message.get("op")
    fields = OPS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise InvalidRequest(f"unknown op {op!r}")
    return op, {
        name: check(name, message.get(name, default))
        for name, (default, check) in fields.items()
    }


# -- responses -------------------------------------------------------------------


def alignment_to_dict(alignment: Alignment) -> dict:
    return {
        "query_id": alignment.query_id,
        "subject_id": alignment.subject_id,
        "query_start": alignment.query_start,
        "query_end": alignment.query_end,
        "subject_start": alignment.subject_start,
        "subject_end": alignment.subject_end,
        "score": alignment.score,
        "bit_score": alignment.bit_score,
        "evalue": alignment.evalue,
        "identity": alignment.identity,
    }


def report_to_dict(report: QueryReport, top: int | None = None) -> dict:
    """The wire form of one query report (optionally truncated to *top*)."""
    alignments = report.alignments
    if top is not None:
        alignments = alignments[:top]
    return {
        "query_id": report.query_id,
        "alignment_count": len(report.alignments),
        "alignments": [alignment_to_dict(a) for a in alignments],
        "coverage": report.coverage,
        "degraded": report.degraded,
        "failed_nodes": report.failed_nodes,
        "stats": dataclasses.asdict(report.stats),
    }
