"""Tests for the full-evaluation report generator (repro.bench.report)."""

import io

import pytest

from repro.bench.figures import FIGURES, ExperimentResult, Figure
from repro.bench.report import generate_report


class TestShapeSummary:
    def test_fig5(self):
        result = ExperimentResult(
            name="fig5-load-balance",
            rows=[],
            meta={"flat_spread_pct": 0.3, "mendel_spread_pct": 2.5, "nodes": 50},
        )
        text = FIGURES["fig5"].summary(result)
        assert "0.30%" in text and "2.50%" in text

    def test_fig6a(self):
        result = ExperimentResult(
            name="fig6a-query-length",
            rows=[
                {"query_length": 500, "mendel_ms": 10.0, "blast_ms": 100.0},
                {"query_length": 1000, "mendel_ms": 15.0, "blast_ms": 200.0},
            ],
        )
        text = FIGURES["fig6a"].summary(result)
        assert "speedup" in text

    def test_fig6c(self):
        result = ExperimentResult(
            name="fig6c-scalability",
            rows=[{"nodes": 5, "mendel_ms": 100.0}, {"nodes": 10, "mendel_ms": 25.0}],
        )
        assert "4.0x" in FIGURES["fig6c"].summary(result)

    def test_unknown_name(self):
        # A result no figure declares carries no claims to check.
        assert ExperimentResult(name="other", rows=[]).checks() == {}


class TestGenerateReport:
    def test_smoke(self, monkeypatch):
        """Full report with tiny stubbed experiments (the real runners are
        exercised by the benchmark suite)."""
        import repro.bench.report as report_module

        def stub_runner(name):
            def run():
                return ExperimentResult(
                    name=name,
                    rows=[{"x": 1, "y": 2.0}, {"x": 2, "y": 2.1}],
                    meta={},
                )

            return run

        monkeypatch.setattr(report_module, "FIGURES", {
            "stub": Figure("Stub fig", "stub claim", stub_runner("stub"), {},
                           lambda result: "stub shape"),
        })
        buffer = io.StringIO()
        text = generate_report(out=buffer, max_rows=1)
        assert text == buffer.getvalue()
        assert "# Mendel reproduction" in text
        assert "Stub fig" in text
        assert "stub claim" in text
        assert "(1 more rows)" in text
        assert "*Measured shape:* stub shape" in text


class TestShapeSummaryMore:
    def test_fig6b(self):
        result = ExperimentResult(
            name="fig6b-db-size",
            rows=[
                {"db_residues": 100, "mendel_ms": 10.0, "blast_ms": 10.0},
                {"db_residues": 1000, "mendel_ms": 11.0, "blast_ms": 500.0},
            ],
        )
        text = FIGURES["fig6b"].summary(result)
        assert "growth ratios" in text

    def test_fig6d(self):
        result = ExperimentResult(
            name="fig6d-sensitivity",
            rows=[
                {"identity_pct": 90, "mendel_found_pct": 100.0,
                 "blast_found_pct": 75.0},
            ],
        )
        text = FIGURES["fig6d"].summary(result)
        assert "mendel 100" in text and "blast 75" in text
