"""Bench-delta attribution (repro.bench.attribution + `repro bench diff`).

The contract CI leans on: `diff` + `render_attribution_md` are pure
functions of the input files, so ATTRIBUTION.md is byte-identical across
re-runs; missing PROFILE files degrade to a ranked metric table plus a
how-to-capture note instead of an error.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.bench import attribution, regress
from repro.obs.profile import CostProfiler


def _bench(seed: int, **metric_values: float) -> dict:
    metrics = {
        name: {"value": value, "unit": "1",
               "direction": "lower", "tolerance": 0.1}
        for name, value in metric_values.items()
    }
    return {
        "schema_version": regress.SCHEMA_VERSION,
        "suite": regress.SUITE_NAME,
        "seed": seed,
        "workloads": {"w": {"metrics": metrics}},
    }


def _profile(seed: int, counters: dict) -> dict:
    cost = CostProfiler()
    for (stage, site), charges in counters.items():
        cost.charge(stage, site, **charges)
    return attribution.profile_report(cost, seed=seed)


class TestProfileFiles:
    def test_profile_path_for_bench_numbering(self, tmp_path):
        assert attribution.profile_path_for(
            tmp_path / "BENCH_12.json"
        ) == tmp_path / "PROFILE_12.json"
        assert attribution.profile_path_for(
            tmp_path / "other.json"
        ).name == "other.json.profile.json"

    def test_write_then_load_roundtrip(self, tmp_path):
        report = _profile(7, {("node", "s"): {"distance_evals": 3}})
        path = attribution.write_profile(report, tmp_path / "PROFILE_1.json")
        assert attribution.load_profile(path) == report

    def test_load_tolerates_missing_and_garbage(self, tmp_path):
        assert attribution.load_profile(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert attribution.load_profile(bad) is None
        notdict = tmp_path / "notdict.json"
        notdict.write_text("[1, 2]")
        assert attribution.load_profile(notdict) is None


class TestDeltasAndMovers:
    def test_metric_deltas_ranked_by_relative_movement(self):
        a = _bench(0, wall_s=1.0, distance_evals=100.0)
        b = _bench(0, wall_s=1.1, distance_evals=300.0)
        deltas = attribution._metric_deltas(a, b)
        assert [d["metric"] for d in deltas] == ["distance_evals", "wall_s"]
        assert deltas[0]["relative"] == pytest.approx(2.0)
        assert deltas[1]["delta"] == pytest.approx(0.1)

    def test_unshared_metrics_are_ignored(self):
        a = _bench(0, wall_s=1.0, only_a=5.0)
        b = _bench(0, wall_s=1.0, only_b=9.0)
        deltas = attribution._metric_deltas(a, b)
        assert [d["metric"] for d in deltas] == ["wall_s"]

    def test_share_movers_track_share_not_magnitude(self):
        # Total doubles uniformly in one cell: its share is unchanged, but
        # a cell that grows against a flat sibling moves share.
        a = _profile(0, {
            ("node", "x"): {"distance_evals": 50},
            ("route", "y"): {"distance_evals": 50},
        })
        b = _profile(0, {
            ("node", "x"): {"distance_evals": 150},
            ("route", "y"): {"distance_evals": 50},
        })
        movers = attribution._share_movers(a, b)
        by_stage = {m["stage"]: m for m in movers}
        assert by_stage["node"]["share_move"] == pytest.approx(0.25)
        assert by_stage["route"]["share_move"] == pytest.approx(-0.25)
        assert movers[0]["stage"] in ("node", "route")  # biggest |move| first

    def test_vanished_cell_is_a_full_negative_move(self):
        a = _profile(0, {("gapped", "g"): {"residues_compared": 10}})
        b = _profile(0, {("node", "n"): {"residues_compared": 10}})
        movers = attribution._share_movers(a, b)
        moves = {m["stage"]: m["share_move"] for m in movers}
        assert moves["gapped"] == pytest.approx(-1.0)
        assert moves["node"] == pytest.approx(1.0)

    def test_counters_for_metric_rules(self):
        assert attribution._counters_for_metric("distance_evals_total") == (
            "distance_evals",
        )
        assert attribution._counters_for_metric("cold_read_mib") == (
            "cold_read_bytes", "cold_read_seeks",
            "cache_hits", "cache_misses",
        )
        assert attribution._counters_for_metric("wall_s") == ()


class TestDiffAndRendering:
    def _pair(self):
        a = _bench(3, wall_s=1.0, distance_evals=100.0)
        b = _bench(3, wall_s=2.0, distance_evals=400.0)
        pa = _profile(3, {
            ("node", "core/query.py:node_proc"): {"distance_evals": 90},
            ("route", "core/query.py:system_proc"): {"distance_evals": 10},
        })
        pb = _profile(3, {
            ("node", "core/query.py:node_proc"): {"distance_evals": 390},
            ("route", "core/query.py:system_proc"): {"distance_evals": 10},
        })
        return a, b, pa, pb

    def test_diff_attributes_metric_to_relevant_counters(self):
        a, b, pa, pb = self._pair()
        result = attribution.diff(a, b, pa, pb)
        assert result["have_profiles"]
        attributed = result["attribution"]["w.distance_evals"]
        assert all(m["counter"] == "distance_evals" for m in attributed)
        assert attributed[0]["stage"] == "node"
        # wall_s matches no rule -> attributes across every counter
        assert result["attribution"]["w.wall_s"]

    def test_render_is_byte_identical_and_ranked(self):
        a, b, pa, pb = self._pair()
        result = attribution.diff(a, b, pa, pb, label_a="BENCH_1.json",
                                  label_b="BENCH_2.json")
        text1 = attribution.render_attribution_md(result)
        text2 = attribution.render_attribution_md(
            attribution.diff(a, b, pa, pb, label_a="BENCH_1.json",
                             label_b="BENCH_2.json")
        )
        assert text1 == text2
        assert text1.startswith("# Bench delta attribution")
        assert "| rank |" in text1
        assert "| 1 | w.distance_evals " in text1
        assert "## Cost-share movement" in text1
        assert "core/query.py:node_proc" in text1

    def test_no_profiles_path_degrades_gracefully(self):
        a, b, _pa, _pb = self._pair()
        result = attribution.diff(a, b)
        assert not result["have_profiles"]
        text = attribution.render_attribution_md(result)
        assert "No PROFILE files accompany" in text
        assert "repro bench --regress --profile" in text
        assert "## Cost-share movement" not in text

    def test_write_attribution(self, tmp_path):
        a, b, pa, pb = self._pair()
        out = attribution.write_attribution(
            attribution.diff(a, b, pa, pb), tmp_path / "ATTRIBUTION.md"
        )
        assert out.read_text().startswith("# Bench delta attribution")


class TestBenchDiffCli:
    def _write_pair(self, tmp_path: Path, with_profiles: bool) -> tuple:
        a = _bench(5, wall_s=1.0, distance_evals=100.0)
        b = _bench(5, wall_s=1.5, distance_evals=250.0)
        path_a = tmp_path / "BENCH_1.json"
        path_b = tmp_path / "BENCH_2.json"
        path_a.write_text(json.dumps(a))
        path_b.write_text(json.dumps(b))
        if with_profiles:
            attribution.write_profile(
                _profile(5, {("node", "s"): {"distance_evals": 100}}),
                tmp_path / "PROFILE_1.json",
            )
            attribution.write_profile(
                _profile(5, {("node", "s"): {"distance_evals": 250}}),
                tmp_path / "PROFILE_2.json",
            )
        return path_a, path_b

    def test_diff_writes_attribution_md(self, tmp_path):
        path_a, path_b = self._write_pair(tmp_path, with_profiles=True)
        out_md = tmp_path / "ATTRIBUTION.md"
        stream = io.StringIO()
        code = cli.main(
            ["bench", "diff", str(path_a), str(path_b),
             "--out", str(out_md)],
            out=stream,
        )
        assert code == 0
        assert "with cost-profile attribution" in stream.getvalue()
        text = out_md.read_text()
        assert "w.distance_evals" in text
        assert "## Per-metric attribution" in text

    def test_diff_rerun_is_byte_identical(self, tmp_path):
        path_a, path_b = self._write_pair(tmp_path, with_profiles=True)
        out_md = tmp_path / "ATTRIBUTION.md"
        args = ["bench", "diff", str(path_a), str(path_b),
                "--out", str(out_md)]
        assert cli.main(args, out=io.StringIO()) == 0
        first = out_md.read_bytes()
        assert cli.main(args, out=io.StringIO()) == 0
        assert out_md.read_bytes() == first

    def test_diff_without_profiles_still_succeeds(self, tmp_path):
        path_a, path_b = self._write_pair(tmp_path, with_profiles=False)
        out_md = tmp_path / "ATTRIBUTION.md"
        stream = io.StringIO()
        code = cli.main(
            ["bench", "diff", str(path_a), str(path_b),
             "--out", str(out_md)],
            out=stream,
        )
        assert code == 0
        assert "without cost-profile attribution" in stream.getvalue()
        assert "No PROFILE files accompany" in out_md.read_text()

    def test_diff_requires_exactly_two_files(self, tmp_path, capsys):
        assert cli.main(
            ["bench", "diff", str(tmp_path / "only.json")],
            out=io.StringIO(),
        ) == 2
        assert "two BENCH files" in capsys.readouterr().err

    def test_diff_missing_file_errors(self, tmp_path, capsys):
        assert cli.main(
            ["bench", "diff", str(tmp_path / "a.json"),
             str(tmp_path / "b.json")],
            out=io.StringIO(),
        ) == 2


class TestRegressProfileCapture:
    @pytest.fixture()
    def charging_suite(self, monkeypatch):
        """Stub suite that charges the installed cost profiler, mimicking
        what the real workloads do through the engine's profile hooks."""
        from repro.obs import profile as profmod

        def stub_suite(seed=23):
            profmod.charge("node", "stub/site.py:run",
                           distance_evals=100 + seed)
            return {
                "schema_version": regress.SCHEMA_VERSION,
                "suite": regress.SUITE_NAME,
                "seed": seed,
                "workloads": {
                    "stub": {
                        "metrics": {
                            "distance_evals": {
                                "value": float(100 + seed), "unit": "1",
                                "direction": "lower", "tolerance": 0.1,
                            }
                        }
                    }
                },
            }

        monkeypatch.setattr(regress, "run_suite", stub_suite)
        return stub_suite

    def test_regress_profile_writes_profile_sibling(
        self, charging_suite, tmp_path
    ):
        code = cli.main(
            ["bench", "--regress", "--profile",
             "--bench-dir", str(tmp_path), "--seed", "4"],
            out=io.StringIO(),
        )
        assert code == 0
        profile = attribution.load_profile(tmp_path / "PROFILE_1.json")
        assert profile is not None
        assert profile["seed"] == 4
        assert profile["counters"]["node"]["stub/site.py:run"][
            "distance_evals"] == 104

    def test_regress_without_profile_flag_writes_no_profile(
        self, charging_suite, tmp_path
    ):
        cli.main(["bench", "--regress", "--bench-dir", str(tmp_path)],
                 out=io.StringIO())
        assert not (tmp_path / "PROFILE_1.json").exists()

    def test_captured_profiles_feed_bench_diff(self, charging_suite, tmp_path):
        for seed in ("4", "9"):
            assert cli.main(
                ["bench", "--regress", "--profile",
                 "--bench-dir", str(tmp_path), "--seed", seed],
                out=io.StringIO(),
            ) == 0
        out_md = tmp_path / "ATTRIBUTION.md"
        code = cli.main(
            ["bench", "diff", str(tmp_path / "BENCH_1.json"),
             str(tmp_path / "BENCH_2.json"), "--out", str(out_md)],
            out=io.StringIO(),
        )
        assert code == 0
        text = out_md.read_text()
        assert "stub/site.py:run" in text
        assert "stub.distance_evals" in text
