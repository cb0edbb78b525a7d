"""CLI tests for the bench subcommand and translated query routing."""

import io
from dataclasses import replace

import pytest

import repro.cli as cli
from repro.bench.figures import FIGURES, ExperimentResult, Figure
from repro.seq import DNA, PROTEIN, SequenceRecord, SequenceSet, format_fasta
from repro.seq.generate import random_protein
from repro.seq.translate import STANDARD_CODE
from repro.util.rng import as_generator
from tests.test_cli import flag_spec


def stub_figure(monkeypatch, key, runner):
    """Make ``repro bench <key>`` run *runner* instead of the real figure."""
    monkeypatch.setitem(FIGURES, key, replace(FIGURES[key], run=runner))


def stub_report(monkeypatch, runner):
    """Make ``repro bench all`` render one stub figure."""
    import repro.bench.report as report_module

    monkeypatch.setattr(report_module, "FIGURES", {
        "stub": Figure("Stub", "claim", runner, {}, lambda result: ""),
    })


class TestBenchCommand:
    @pytest.fixture()
    def stubbed(self, monkeypatch):
        def runner():
            return ExperimentResult(
                name="stub-figure",
                rows=[{"x": 1, "y": 2.5}],
                meta={"note": "stubbed"},
            )

        stub_figure(monkeypatch, "fig5", runner)
        return runner

    def test_bench_single_figure(self, stubbed):
        out = io.StringIO()
        assert cli.main(["bench", "fig5"], out=out) == 0
        text = out.getvalue()
        assert "stub-figure" in text
        assert "stubbed" in text

    def test_bench_all_writes_report(self, monkeypatch, tmp_path):
        def stub():
            return ExperimentResult(name="stub", rows=[{"a": 1}])

        stub_report(monkeypatch, stub)
        out = io.StringIO()
        target = tmp_path / "report.md"
        assert cli.main(["bench", "all", "--out", str(target)], out=out) == 0
        assert "report written" in out.getvalue()
        assert "Stub" in target.read_text()

    def test_bench_all_to_stdout(self, monkeypatch):
        def stub():
            return ExperimentResult(name="stub", rows=[{"a": 1}])

        stub_report(monkeypatch, stub)
        out = io.StringIO()
        assert cli.main(["bench", "all"], out=out) == 0
        assert "Stub" in out.getvalue()

    def test_bench_passing_shape_reports_ok(self, monkeypatch):
        # A figure whose rows satisfy its shape claims exits zero and says so.
        def runner():
            return ExperimentResult(
                name="fig6a-query-length",
                rows=[
                    {"query_length": 500, "mendel_ms": 10.0, "blast_ms": 100.0},
                    {"query_length": 1000, "mendel_ms": 11.0, "blast_ms": 200.0},
                ],
            )

        stub_figure(monkeypatch, "fig6a", runner)
        out = io.StringIO()
        assert cli.main(["bench", "fig6a"], out=out) == 0
        assert "shape OK" in out.getvalue()

    def test_bench_failing_shape_exits_nonzero(self, monkeypatch, capsys):
        # Mendel slower than BLAST at every length: the fig6a claim is
        # violated, so the CLI must exit non-zero and name the failure.
        def runner():
            return ExperimentResult(
                name="fig6a-query-length",
                rows=[
                    {"query_length": 500, "mendel_ms": 100.0, "blast_ms": 10.0},
                    {"query_length": 1000, "mendel_ms": 300.0, "blast_ms": 11.0},
                ],
            )

        stub_figure(monkeypatch, "fig6a", runner)
        out = io.StringIO()
        assert cli.main(["bench", "fig6a"], out=out) == 1
        err = capsys.readouterr().err
        assert "SHAPE FAIL" in err
        assert "mendel_wins_at_every_length" in err

    def test_bench_fig6c_needs_the_benchmark_speedup(self, monkeypatch,
                                                     capsys):
        # Strictly decreasing, but only 3x from first to last: the
        # benchmarks' > 5x claim fails, and so must the CLI.
        def runner():
            return ExperimentResult(
                name="fig6c-scalability",
                rows=[{"nodes": n, "mendel_ms": ms}
                      for n, ms in ((5, 300.0), (10, 200.0), (50, 100.0))],
            )

        stub_figure(monkeypatch, "fig6c", runner)
        assert cli.main(["bench", "fig6c"], out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert "SHAPE FAIL [fig6c-scalability]: substantial_speedup" in err
        assert "monotone_decrease" not in err

    def test_figure_choices_are_the_table(self):
        choices = flag_spec(cli.build_parser())["bench"]["figure"][2]
        assert set(choices) - {"all", "diff"} == set(FIGURES)

    def test_bench_without_figure_or_regress_errors(self, capsys):
        assert cli.main(["bench"], out=io.StringIO()) == 2
        assert "name a figure" in capsys.readouterr().err


class TestBenchRegressCli:
    @pytest.fixture()
    def fast_suite(self, monkeypatch):
        """Replace the heavyweight workload suite with a deterministic stub
        (the real suite is exercised in tests/bench/test_regress.py)."""
        from repro.bench import regress

        def stub_suite(seed=23):
            return {
                "schema_version": regress.SCHEMA_VERSION,
                "suite": regress.SUITE_NAME,
                "seed": seed,
                "workloads": {
                    "stub": {
                        "metrics": {
                            "wall_s": {
                                "value": 1.0, "unit": "s",
                                "direction": "lower", "tolerance": 0.9,
                            }
                        }
                    }
                },
            }

        monkeypatch.setattr(regress, "run_suite", stub_suite)
        return stub_suite

    def test_first_run_establishes_baseline(self, fast_suite, tmp_path):
        out = io.StringIO()
        code = cli.main(
            ["bench", "--regress", "--bench-dir", str(tmp_path)], out=out
        )
        assert code == 0
        assert (tmp_path / "BENCH_1.json").exists()
        assert "baseline established" in out.getvalue()

    def test_clean_second_run_passes(self, fast_suite, tmp_path):
        cli.main(["bench", "--regress", "--bench-dir", str(tmp_path)],
                 out=io.StringIO())
        out = io.StringIO()
        code = cli.main(
            ["bench", "--regress", "--bench-dir", str(tmp_path)], out=out
        )
        assert code == 0
        assert (tmp_path / "BENCH_2.json").exists()
        assert "no regressions" in out.getvalue()

    def test_2x_slowdown_fails_the_gate(self, fast_suite, tmp_path):
        import json

        cli.main(["bench", "--regress", "--bench-dir", str(tmp_path)],
                 out=io.StringIO())
        # Rewrite the baseline as if the machine had been 2x faster, so the
        # (unchanged) stub run is a 2x slowdown against it.
        baseline_path = tmp_path / "BENCH_1.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["workloads"]["stub"]["metrics"]["wall_s"]["value"] = 0.5
        baseline_path.write_text(json.dumps(baseline))
        out = io.StringIO()
        code = cli.main(
            ["bench", "--regress", "--bench-dir", str(tmp_path)], out=out
        )
        assert code == 1
        assert "REGRESSION stub.wall_s" in out.getvalue()

    def test_schema_mismatch_skips_comparison(self, fast_suite, tmp_path):
        import json

        from repro.bench import regress

        (tmp_path / "BENCH_1.json").write_text(
            json.dumps({
                "schema_version": regress.SCHEMA_VERSION + 1,
                "workloads": {},
            })
        )
        out = io.StringIO()
        code = cli.main(
            ["bench", "--regress", "--bench-dir", str(tmp_path)], out=out
        )
        assert code == 0
        assert "baseline skipped" in out.getvalue()


class TestTranslatedQueryViaCli:
    def test_dna_query_against_protein_index(self, tmp_path):
        gen = as_generator(44)
        db = SequenceSet(alphabet=PROTEIN)
        for i in range(8):
            db.add(random_protein(90, rng=gen, seq_id=f"tp-{i:02d}"))
        refs = tmp_path / "refs.fasta"
        refs.write_text(format_fasta(db.records))

        by_amino: dict[str, list[str]] = {}
        for codon, amino in STANDARD_CODE.items():
            by_amino.setdefault(amino, []).append(codon)
        dna_text = "".join(by_amino[ch][0] for ch in db.records[3].text)
        queries = tmp_path / "q.fasta"
        queries.write_text(
            format_fasta([SequenceRecord.from_text("gene", dna_text, DNA)])
        )

        archive = tmp_path / "deploy.npz"
        out = io.StringIO()
        assert cli.main(
            ["index", str(refs), "--out", str(archive), "--nodes", "4",
             "--seed", "3"],
            out=out,
        ) == 0
        out = io.StringIO()
        code = cli.main(
            ["query", str(archive), str(queries), "--alphabet", "dna",
             "--identity", "0.8"],
            out=out,
        )
        assert code == 0
        assert "tp-03" in out.getvalue()  # the DNA gene's source protein
        assert "frame+0" in out.getvalue()
