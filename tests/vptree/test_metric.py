"""Tests for the metric adapter (repro.vptree.metric)."""

import numpy as np
import pytest

from repro.seq.alphabet import PROTEIN
from repro.seq.distance import MatrixDistance, hamming
from repro.seq.matrices import BLOSUM62, mendel_distance_matrix
from repro.vptree.metric import MetricAdapter


class TestMetricAdapter:
    def test_pair_counts(self):
        adapter = MetricAdapter(hamming)
        a = np.array([0, 1], dtype=np.uint8)
        adapter.pair(a, a)
        adapter.pair(a, a)
        assert adapter.pair_evaluations == 2

    def test_batch_counts_rows(self):
        adapter = MetricAdapter(hamming)
        q = np.array([0, 1], dtype=np.uint8)
        rows = np.zeros((7, 2), dtype=np.uint8)
        adapter.batch(q, rows)
        assert adapter.pair_evaluations == 7

    def test_batch_uses_vectorised_form_when_available(self):
        metric = MatrixDistance(mendel_distance_matrix(BLOSUM62))
        adapter = MetricAdapter(metric)
        q = np.array([0, 1, 2], dtype=np.uint8)
        rows = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
        out = adapter.batch(q, rows)
        assert out.shape == (2,)
        assert out[0] == 0.0

    def test_batch_falls_back_to_pair_loop(self):
        calls = {"n": 0}

        def plain(a, b):
            calls["n"] += 1
            return float(np.count_nonzero(a != b))

        adapter = MetricAdapter(plain)
        q = np.array([0, 1], dtype=np.uint8)
        rows = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        out = adapter.batch(q, rows)
        assert out.tolist() == [0.0, 1.0, 1.0]
        assert calls["n"] == 3

    def test_batch_promotes_1d(self):
        adapter = MetricAdapter(hamming)
        q = np.array([0, 1], dtype=np.uint8)
        out = adapter.batch(q, np.array([0, 0], dtype=np.uint8))
        assert out.shape == (1,)

    def test_stack_counts_every_pair(self):
        metric = MatrixDistance(mendel_distance_matrix(BLOSUM62))
        adapter = MetricAdapter(metric)
        queries = np.array([[0, 1, 2], [3, 4, 5], [0, 0, 0]], dtype=np.uint8)
        rows = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
        out = adapter.batch(queries, rows)
        assert out.shape == (3, 2)
        assert adapter.pair_evaluations == 6
        assert out.tolist() == [metric.batch(q, rows).tolist() for q in queries]

    def test_stack_falls_back_to_pair_loop(self):
        calls = {"n": 0}

        def plain(a, b):
            calls["n"] += 1
            return float(np.count_nonzero(a != b))

        adapter = MetricAdapter(plain)
        queries = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        rows = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        out = adapter.batch(queries, rows)
        assert out.tolist() == [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]]
        assert calls["n"] == adapter.pair_evaluations == 6
        assert adapter.batch(queries, rows[:0]).shape == (2, 0)
        assert adapter.batch(queries[:0], rows).shape == (0, 3)
