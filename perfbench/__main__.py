"""``python -m perfbench`` — run, compare, selftest, spread.

* ``run [--seed 23] [--workload W] [--traced] [--repeat N] [--seconds S]
  [--out DIR]`` runs each workload in a fresh ``run.py`` process (so caches,
  registries and ``peak_rss_mb`` are per workload), prints one
  ``workload metric value unit`` line per metric, writes ``results.json``,
  ``samples.csv`` and ``table_medians.csv`` and exits non-zero if a
  correctness check failed.
* ``compare A/results.json B/results.json`` prints, per workload x metric,
  both values, the relative difference, the bound and a verdict.
* ``selftest`` runs every workload at a tenth of its size and checks the
  benchmark's own invariants.
* ``spread`` makes the driver's acceptance runs (ten seeds per workload,
  twice) and prints the ``SPREAD.md`` tables, raw times beside normalised.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perfbench import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
#: everything the commands write by default lands here (ignored by git)
DEFAULT_OUT = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 600
#: ``spread`` does what the driver does to accept the benchmark
SPREAD_SEEDS = range(1, 11)
SPREAD_SETS = 2


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_process(workload: str, seed: int, seconds: float, trace: bool,
                out: Path | None = None) -> tuple[dict, str]:
    """One ``run.py`` process; returns its last-line JSON and full stdout."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


# -- run --------------------------------------------------------------------------


def command_run(args: argparse.Namespace) -> int:
    from perfbench import report

    out = args.out or DEFAULT_OUT / "run"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for workload in workloads:
        for trace in (False, True) if args.traced else (False,):
            for _ in range(args.repeat):
                _, stdout = run_process(workload, args.seed, seconds, trace,
                                        out / workload)
                sys.stdout.write("".join(
                    line + "\n" for line in stdout.splitlines()[:-1]
                ))
                name = f"run_{report.mode_name(trace)}.json"
                runs.append(json.loads((out / workload / name).read_text()))
    results = report.merge_runs(out, runs)
    print(f"wrote {out / 'results.json'}")
    failed = [w for w, entry in results["workloads"].items() if not entry["correct"]]
    for workload in failed:
        print(f"perfbench: {workload} failed a correctness check", file=sys.stderr)
    return 1 if failed else 0


# -- compare ----------------------------------------------------------------------


def command_compare(args: argparse.Namespace) -> int:
    from perfbench import report

    rows = report.compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text())
    )
    print(report.format_compare(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


# -- selftest ---------------------------------------------------------------------


def command_selftest(args: argparse.Namespace) -> int:
    from perfbench.workloads import load_inputs, make_inputs

    spec = contract()
    seconds = spec["run_seconds"] / 10
    out = DEFAULT_OUT / "selftest"
    if out.exists():
        shutil.rmtree(out)
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    with ThreadPoolExecutor(max_workers=2) as pool:
        traced = list(pool.map(
            lambda w: run_process(w, args.seed, seconds, True, out / w)[0], WORKLOADS
        ))
        untraced = pool.submit(run_process, "read_mapping", args.seed, seconds, False)
        untraced = untraced.result()[0]

    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in list(end_to_end) + list(per_layer):
        check(bool(name_ok.match(name)), f"bad metric name {name!r}")
    check(not set(end_to_end) & set(per_layer), "a metric is listed twice")
    check(set(untraced) == {"correct", "attempted", "failed", "metrics"},
          "untraced result line has the wrong keys")
    check({n: m["unit"] for n, m in untraced["metrics"].items()} == end_to_end,
          "untraced run does not print exactly the end-to-end metrics")

    seen_nonzero: set[str] = set()
    for workload, line in zip(WORKLOADS, traced):
        check(line["correct"] and line["failed"] == 0,
              f"{workload}: {line['failed']} failed operations")
        check({n: m["unit"] for n, m in line["metrics"].items()} == per_layer,
              f"{workload}: traced run does not print exactly the per-layer metrics")
        seen_nonzero |= {n for n, m in line["metrics"].items() if m["value"] != 0}
        full = json.loads((out / workload / "run_traced.json").read_text())
        measured = full["metrics"]
        for name in end_to_end:
            value = measured.get(name, {}).get("value")
            check(isinstance(value, float) and value > 0 and value == value
                  and value != float("inf"),
                  f"{workload}: end-to-end metric {name} = {value!r}")
        check(full["nesting_problems"] == [],
              f"{workload}: spans do not nest: {full['nesting_problems'][:3]}")
        regenerated = make_inputs(workload, args.seed, seconds)
        loaded = load_inputs(out / workload)
        check(
            [r.seq_id for r in loaded.database] == [r.seq_id for r in regenerated.database]
            and all(
                [(x.record, x.cls, x.sources) for x in loaded.pools[name]]
                == [(x.record, x.cls, x.sources) for x in pool]
                for name, pool in regenerated.pools.items()
            )
            and loaded.plan == json.loads(json.dumps(regenerated.plan)),
            f"{workload}: inputs do not survive the round trip through files",
        )
        if workload == "serve_gateway":
            check(measured["serve.tiling_gap_share"]["value"] <= 0.05,
                  "serve_gateway: queue wait + engine + post does not tile latency")
            check(measured["serve.tcp_hit_engine_spans"]["value"] == 0,
                  "serve_gateway: engine spans during the tcp_hit phase")
    # A layer metric no workload ever moves off zero is a dead name.
    # (a p90 needs 100 samples, which a tenth-size run does not have)
    may_be_zero = {"failed_share", "serve.shed_count", "serve.backlog_max",
                   "query_p90_ms"}
    for name in set(per_layer) - seen_nonzero - may_be_zero:
        problems.append(f"per-layer metric {name} is 0 on every workload")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'ok'} "
          f"({len(end_to_end)} end-to-end, {len(per_layer)} per-layer metrics, "
          f"{len(WORKLOADS)} workloads at {seconds:g} s)")
    return 1 if problems else 0


# -- spread -----------------------------------------------------------------------


def command_spread(args: argparse.Namespace) -> int:
    from perfbench.stats import spread

    spec = contract()
    seconds = spec["run_seconds"]
    out = DEFAULT_OUT / "spread"
    medians: dict[tuple[int, str, str], float] = {}
    print(f"seeds {SPREAD_SEEDS[0]}..{SPREAD_SEEDS[-1]}, {seconds} s per run, "
          f"{SPREAD_SETS} sets\n")
    for index in range(SPREAD_SETS):
        print(f"### Set {index + 1}\n")
        print("| workload | metric | values | median | spread | bound | raw spread |")
        print("|---|---|---|---|---|---|---|")
        for workload in WORKLOADS:
            runs = []
            for seed in SPREAD_SEEDS:
                run_process(workload, seed, seconds, False, out)
                runs.append(json.loads((out / "run_untraced.json").read_text()))
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [run["metrics"][name]["value"] for run in runs]
                raw = [run["metrics"].get(f"raw.{name}", {}).get("value") for run in runs]
                medians[index, workload, name] = statistics.median(values)
                print(f"| {workload} | {name} | "
                      f"{' '.join(f'{v:.4g}' for v in values)} | "
                      f"{statistics.median(values):.5g} | {spread(values):.3f} | "
                      f"{metric['bound']} | "
                      f"{'' if None in raw else f'{spread(raw):.3f}'} |", flush=True)
            print(f"| {workload} | failed operations | "
                  f"{sum(run['failed'] for run in runs)} | | | 0 | |")
            for name in ("obs.machine_slowdown", "max_rate_ok"):
                if name in runs[0]["metrics"]:
                    print(f"| {workload} | {name} | " + " ".join(
                        f"{run['metrics'][name]['value']:.3g}" for run in runs
                    ) + " | | | | |", flush=True)
        print()
    print("### Second set against the first\n")
    print("| workload | metric | median 1 | median 2 | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            a = medians[0, workload, metric["name"]]
            b = medians[SPREAD_SETS - 1, workload, metric["name"]]
            worse = (b - a) / a * (1 if metric["better"] == "lower" else -1)
            print(f"| {workload} | {metric['name']} | {a:.5g} | {b:.5g} | "
                  f"{worse:+.3f} | {metric['bound']} |")
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--seed", type=int, default=23)
    run.add_argument("--workload", choices=WORKLOADS, default=None)
    run.add_argument("--traced", action="store_true",
                     help="add a traced run (per-layer metrics, trace_<w>.json)")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload; results keep median and spread")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--out", type=Path, default=None)
    run.set_defaults(call=command_run)

    compare = commands.add_parser("compare", help="compare two results.json")
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    compare.set_defaults(call=command_compare)

    selftest = commands.add_parser("selftest", help="check the benchmark itself")
    selftest.add_argument("--seed", type=int, default=23)
    selftest.set_defaults(call=command_selftest)

    spread = commands.add_parser("spread", help="the driver's acceptance runs")
    spread.set_defaults(call=command_spread)

    args = parser.parse_args(argv)
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
