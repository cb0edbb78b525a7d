"""What a run leaves on disk, and the comparison of two of them.

``run.py --out DIR`` writes, per workload, ``DIR/<workload>/`` with the
generated inputs (``database.fasta``, ``reads.fasta``, ``schedule.json``),
``run_untraced.json`` / ``run_traced.json`` (every metric the run measured)
and ``samples_*.csv``; a traced run adds ``DIR/trace_<workload>.json``.
``python -m perfbench run`` merges those into ``results.json``,
``samples.csv`` (one row per timed operation) and ``table_medians.csv`` (one
row per workload x metric) so trajectories plot without parsing JSON.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

from perfbench.stats import spread
from perfbench.trace import check_nesting
from perfbench.workloads import write_inputs

#: due/start/end are seconds on the run's clock as read; ``speed`` is the
#: machine-speed factor the operation's reported time was divided by
SAMPLE_COLUMNS = ("workload", "phase", "class", "id", "due", "start", "end",
                  "speed", "ok")

DIRECT = ("read_mapping", "homology_search")
EVERY = DIRECT + ("serve_gateway", "storage_lifecycle")

#: What ``compare`` gates: the issue's fifteen end-to-end metrics, each with
#: the workloads that have it, its direction, and the share of the base by
#: which it may worsen between two results of the **same seed**.
#: ``BENCHMARK.json`` cannot hold this table: the driver wants every
#: end-to-end metric from every workload, never 0, and bounds wide enough for
#: ten *different* seeds, so it lists eight of these under ``per_layer`` and
#: gives the other seven cross-seed bounds.  Bounds here are the issue's;
#: SPREAD.md has the same-seed runs that would justify loosening one (to at
#: most 0.20).
COMPARE_GATES = {
    "setup_s": (EVERY, "lower", 0.20),
    "query_p50_ms": (EVERY, "lower", 0.10),
    "query_p90_ms": (DIRECT + ("serve_gateway",), "lower", 0.15),
    "queries_per_s": (EVERY, "higher", 0.10),
    "cpu_ms_per_query": (DIRECT + ("storage_lifecycle",), "lower", 0.10),
    "max_rate_ok": (("serve_gateway",), "higher", 0.0),
    "tcp_hit_ops_per_s": (("serve_gateway",), "higher", 0.10),
    "sim_turnaround_ms": (DIRECT + ("storage_lifecycle",), "lower", 1e-6),
    "recall": (DIRECT, "higher", 0.0),
    "ingest_blocks_per_s": (("storage_lifecycle",), "higher", 0.10),
    "fit_query_p50_ms": (("storage_lifecycle",), "lower", 0.10),
    "recover_p50_ms": (("storage_lifecycle",), "lower", 0.15),
    "disk_bytes_per_user_byte": (("storage_lifecycle",), "lower", 0.01),
    "peak_rss_mb": (EVERY, "lower", 0.10),
}
#: the fifteenth, ``failed_share``, may rise by this much, absolutely
FAILED_SHARE_SLACK = 0.005
#: An open loop whose scheduler sent a request later than this did not offer
#: the rate it claims (``serve.generator_late_ms_max``, median over repeats):
#: ``compare`` calls the open-loop metrics of ``serve_gateway`` unresolved.
LATE_LIMIT_MS = 5.0
OPEN_LOOP_METRICS = ("query_p50_ms", "query_p90_ms", "max_rate_ok")


def mode_name(trace: bool) -> str:
    return "traced" if trace else "untraced"


def write_run(options, result, contract: dict) -> None:
    """Everything one ``run.py`` process leaves under ``options.out``."""
    out = options.out
    out.mkdir(parents=True, exist_ok=True)
    mode = mode_name(options.trace)
    write_inputs(result.inputs, out)
    units = {
        spec["name"]: spec["unit"]
        for spec in contract["end_to_end"] + contract["per_layer"]
    }
    document = {
        "workload": options.workload,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "reasons": result.tally.reasons,
        "metrics": {
            # a ``raw.`` twin has its metric's unit
            name: {"value": value, "unit": units.get(name.removeprefix("raw."), "")}
            for name, value in result.metrics.items()
        },
    }
    if result.tracer is not None:
        document["nesting_problems"] = check_nesting(result.tracer)
        (out.parent / f"trace_{options.workload}.json").write_text(
            json.dumps({"workload": options.workload, "seed": options.seed,
                        "spans": result.tracer.to_rows()})
        )
    (out / f"run_{mode}.json").write_text(json.dumps(document, indent=1) + "\n")
    with open(out / f"samples_{mode}.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, SAMPLE_COLUMNS)
        writer.writeheader()
        for row in result.samples:
            writer.writerow({"workload": options.workload, **row})


# -- merging the runs of ``python -m perfbench run`` -----------------------------


def merge_runs(out: Path, runs: list[dict]) -> dict:
    """Fold per-process run documents into ``results.json`` plus the flat
    tables.  Repeats of one (workload, mode) are summarised by their median
    and their spread (interquartile range over the median)."""
    workloads: dict[str, dict] = {}
    # Untraced runs first: whatever they measured is taken from them, and a
    # traced run contributes only what no untraced run of its workload has.
    for run in sorted(runs, key=lambda run: run["trace"]):
        entry = workloads.setdefault(
            run["workload"],
            {"attempted": 0, "failed": 0, "runs": 0, "metrics": {}},
        )
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        entry["runs"] += 1
        for name, metric in run["metrics"].items():
            slot = entry["metrics"].setdefault(
                name, {"unit": metric["unit"], "traced": run["trace"], "values": []}
            )
            if slot["traced"] == run["trace"]:
                slot["values"].append(metric["value"])
    for entry in workloads.values():
        entry["correct"] = entry["failed"] == 0
        for slot in entry["metrics"].values():
            slot["value"] = statistics.median(slot["values"])
            slot["spread"] = spread(slot["values"])
    results = {
        "seed": runs[0]["seed"] if runs else None,
        "seconds": runs[0]["seconds"] if runs else None,
        "workloads": workloads,
    }
    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    with open(out / "table_medians.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("workload", "metric", "median", "unit", "runs", "spread"))
        for workload, entry in workloads.items():
            for name, slot in entry["metrics"].items():
                writer.writerow((workload, name, slot["value"], slot["unit"],
                                 len(slot["values"]), slot["spread"]))
    with open(out / "samples.csv", "w", newline="") as merged:
        writer = csv.writer(merged)
        writer.writerow(SAMPLE_COLUMNS)
        for path in sorted(out.glob("*/samples_*.csv")):
            with open(path, newline="") as handle:
                rows = csv.reader(handle)
                next(rows)
                writer.writerows(rows)
    return results


# -- compare ---------------------------------------------------------------------


def compare(base: dict, new: dict) -> list[dict]:
    """One row per workload x gated metric: both medians, the relative
    difference with *base* as its base, the bound and a verdict —
    ``within``, ``regressed``, or ``unresolved`` when either side's spread
    between repeats is wider than the bound or its open loop sent late."""
    rows = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        sent_late = any(
            entry["metrics"].get("serve.generator_late_ms_max", {}).get("value", 0.0)
            > LATE_LIMIT_MS
            for entry in (base_entry, new_entry)
        )
        for name, (workloads, better, bound) in COMPARE_GATES.items():
            a = base_entry["metrics"].get(name)
            b = new_entry["metrics"].get(name)
            # a p90 from under P90_MIN_SAMPLES samples is not reported
            if workload not in workloads or a is None or b is None:
                continue
            worse = (b["value"] - a["value"]) * (1 if better == "lower" else -1)
            relative = worse / abs(a["value"]) if a["value"] else 0.0
            if max(a["spread"], b["spread"]) > max(bound, 1e-12) or (
                sent_late and name in OPEN_LOOP_METRICS
            ):
                verdict = "unresolved"
            elif relative > bound:
                verdict = "regressed"
            else:
                verdict = "within"
            rows.append({
                "workload": workload, "metric": name, "unit": a["unit"],
                "base": a["value"], "new": b["value"],
                "worse_by": relative, "bound": bound, "verdict": verdict,
            })
        a = base_entry["failed"] / max(1, base_entry["attempted"])
        b = new_entry["failed"] / max(1, new_entry["attempted"])
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "fraction",
            "base": a, "new": b, "worse_by": b - a, "bound": FAILED_SHARE_SLACK,
            "verdict": "regressed" if b - a > FAILED_SHARE_SLACK else "within",
        })
    return rows


def format_compare(rows: list[dict]) -> str:
    lines = [f"{'workload':18} {'metric':26} {'base':>12} {'new':>12} "
             f"{'worse by':>9} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:18} {row['metric']:26} {row['base']:12.5g} "
            f"{row['new']:12.5g} {row['worse_by']:+9.1%} {row['bound']:6.3g}  "
            f"{row['verdict']}  (base {row['base']:.5g} {row['unit']})"
        )
    return "\n".join(lines)
