"""Serving-layer fixtures: a shared service over the session deployment."""

from __future__ import annotations

import threading

import pytest

from repro import QueryParams


@pytest.fixture(scope="module")
def service(mendel):
    """A read-only :class:`QueryService` over the session deployment."""
    svc = mendel.service(max_pending=64)
    yield svc
    svc.close()


@pytest.fixture()
def held_engine(mendel, monkeypatch):
    """Hold every engine call until the returned event is set.

    ``mendel.query_many`` is replaced on the instance, where the service
    looks it up for each admitted request.
    """
    release = threading.Event()
    query_many = mendel.query_many

    def held(records, params=None, trace_contexts=None):
        release.wait(timeout=30)
        return query_many(records, params, trace_contexts=trace_contexts)

    monkeypatch.setattr(mendel, "query_many", held)
    yield release
    release.set()


@pytest.fixture(scope="session")
def probe_texts(protein_db) -> list[str]:
    """Six valid query strings (slices of database sequences)."""
    return [record.text[:60] for record in protein_db.records[:6]]


@pytest.fixture(scope="session")
def serve_params() -> QueryParams:
    return QueryParams(k=4, n=4, i=0.6, c=0.4)
