"""The scenario harness (repro.scenario), the six-row command table that
sits on it (repro.cli._SCENARIOS), and the ``repro chaos`` command."""

import dataclasses
import io
import json

import pytest

from repro.cli import _SCENARIOS, build_parser, main
from repro.scenario import (
    PARAMS,
    answer_signature,
    build_deployment,
    planted_probes,
)

#: every table row at seed 0, on the smallest shape its flags allow
ROWS = {
    "chaos": ["chaos", "--replication", "1", "--groups", "2",
              "--group-size", "2", "--sequences", "8", "--probes", "3"],
    "watch": ["watch", "--once", "--groups", "2", "--group-size", "2",
              "--probes", "3"],
    "autoscale": ["autoscale"],
    "recover": ["recover", "--groups", "2", "--group-size", "2",
                "--sequences", "8", "--probes", "2"],
    "scrub": ["scrub", "--group-size", "2", "--sequences", "8",
              "--probes", "2", "--flips", "1"],
    "tier": ["tier", "--families", "2", "--members", "2"],
}


def run_row(argv):
    args = build_parser().parse_args(argv + ["--seed", "0"])
    return _SCENARIOS[args.command].run(args)


def event_log(outcome):
    monitor = getattr(outcome, "monitor", None)  # tier: no monitored batch
    return monitor.events.to_dicts() if monitor is not None else []


@pytest.fixture(scope="module")
def report():
    mendel = build_deployment(3, (8, 100), group_count=2, group_size=2)
    probes, _ = planted_probes(mendel, 1, 13)
    return mendel.engine.run_batch(probes, PARAMS)[0]


class TestHarness:
    def test_same_seed_builds_answer_identically(self):
        signatures = []
        for _ in range(2):
            mendel = build_deployment(3, (8, 100), group_count=2,
                                      group_size=2)
            probes, expected = planted_probes(mendel, 3, 13, spread=True)
            reports = mendel.engine.run_batch(probes, PARAMS)
            assert [r.best().subject_id for r in reports] == expected
            signatures.append([answer_signature(r) for r in reports])
        assert signatures[0] == signatures[1]
        assert any(signatures[0]), "probes must find alignments"

    def test_signature_sees_a_twelfth_digit(self, report):
        first = report.alignments[0]
        nudged = dataclasses.replace(first, evalue=first.evalue * (1 + 1e-12))
        assert nudged.evalue != first.evalue
        # The rounded forms answer_signature replaced would call these equal.
        assert round(nudged.evalue, 9) == round(first.evalue, 9)
        drifted = dataclasses.replace(
            report, alignments=[nudged] + report.alignments[1:]
        )
        assert answer_signature(drifted) != answer_signature(report)
        assert answer_signature(drifted, counters=True) \
            != answer_signature(report, counters=True)

    def test_counters_ride_along_on_request(self, report):
        assert answer_signature(report, counters=True) == (
            answer_signature(report),
            report.stats.candidate_hits,
            report.stats.node_evals,
        )


@pytest.mark.parametrize("name", sorted(ROWS))
class TestTableRows:
    def test_checks_frame_and_replay(self, name):
        first, second = run_row(ROWS[name]), run_row(ROWS[name])
        checks = first.checks()
        assert checks and all(checks.values()), checks
        assert dict(first.summary_rows())
        frame = json.dumps(first.frame(), sort_keys=True)
        assert frame == json.dumps(second.frame(), sort_keys=True)
        assert event_log(first) == event_log(second)
        assert _SCENARIOS[name].text(first) == _SCENARIOS[name].text(second)


class TestChecksGoFalse:
    def test_replication_masks_the_kill_from_the_alert_cycle(self):
        checks = run_row(ROWS["watch"] + ["--replication", "2"]).checks()
        assert not checks["availability alert fired"]
        assert not checks["availability alert resolved afterwards"]
        assert checks["nothing left firing"]

    def test_cycle_is_per_slo(self):
        result = run_row(ROWS["watch"])
        assert all(result.checks("coverage").values())
        assert not result.checks("turnaround")["turnaround alert fired"]

    def test_no_controller_leaves_the_loop_open(self):
        checks = run_row(["autoscale", "--no-controller"]).checks()
        assert checks["alert fired"]  # the same overload happens...
        assert not checks["scaler acted inside the alert window"]
        assert not checks["scaled out"]


class TestBenchMetrics:
    @pytest.mark.parametrize("name", ["autoscale", "tier"])
    def test_bench_out_goes_through_metric(self, name, tmp_path):
        from repro.bench.regress import (
            SCHEMA_VERSION, SIM_TOLERANCE, compare, load_report,
        )

        path = tmp_path / "bench.json"
        code = main(ROWS[name] + ["--seed", "0", "--bench-out", str(path)],
                    out=io.StringIO())
        assert code == 0
        bench = load_report(path)
        assert bench["schema_version"] == SCHEMA_VERSION
        assert bench["suite"] == f"repro-{name}"
        assert compare(bench, bench) == []
        for payload in bench["workloads"].values():
            for metric, raw in payload["metrics"].items():
                assert raw["value"] == round(raw["value"], 6), metric
                if "turnaround" in metric:
                    assert raw["tolerance"] == SIM_TOLERANCE, metric
                assert "wall" not in metric


class TestChaosCommand:
    ARGV = ROWS["chaos"] + ["--log"]

    def run(self, extra=()):
        out = io.StringIO()
        code = main(self.ARGV + list(extra), out=out)
        return code, out.getvalue()

    def test_prints_both_tables_and_the_timeline(self, monkeypatch):
        monkeypatch.delenv("CHAOS_SEED", raising=False)
        code, text = self.run()
        assert code == 0
        assert "kill one node per group, then recover" in text
        assert "recall under failure" in text
        assert "per-query reports" in text
        assert "probe-0" in text
        assert "crash-stopped" in text  # --log

    def test_seed_flag_beats_env_beats_zero(self, monkeypatch):
        monkeypatch.delenv("CHAOS_SEED", raising=False)
        _, seed0 = self.run()
        _, flag7 = self.run(["--seed", "7"])
        monkeypatch.setenv("CHAOS_SEED", "7")
        _, env7 = self.run()
        _, flag0 = self.run(["--seed", "0"])
        assert env7 == flag7
        assert flag0 == seed0
        assert env7 != seed0

    def test_malformed_env_seed_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("CHAOS_SEED", "abc")
        code, text = self.run()
        assert code == 2
        assert text == ""
        assert ("error: CHAOS_SEED must be an integer, got 'abc'"
                in capsys.readouterr().err)
        # An explicit --seed never reads the variable.
        assert self.run(["--seed", "0"])[0] == 0
