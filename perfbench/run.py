"""One workload, one process: the entry point ``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds ``repro`` from the checkout's ``src/``, generates the workload's inputs
from ``--seed``, measures for ``--seconds``, checks the answers and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``python -m perfbench run`` drives this once per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write inputs, samples, metrics and the trace here")
    parser.add_argument("--inputs", type=Path, default=None,
                        help="replay database.fasta/reads.fasta/schedule.json "
                             "from this directory instead of generating them")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The checkout's own sources, ahead of anything installed.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import WORKLOADS, report
    from perfbench.harness import Options

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    options = Options(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds if args.seconds is not None else contract["run_seconds"],
        trace=bool(args.trace),
        out=args.out,
        inputs=args.inputs,
    )
    if args.workload in ("read_mapping", "homology_search"):
        from perfbench.direct import run
    elif args.workload == "serve_gateway":
        from perfbench.gateway import run
    else:
        from perfbench.storage import run
    result = run(options)

    wanted = contract["per_layer" if options.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        # A per-layer metric the workload never touched reads 0; a missing
        # end-to-end metric is a bug and raises.
        value = (
            result.metrics.get(spec["name"], 0.0)
            if options.trace else result.metrics[spec["name"]]
        )
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite: {value!r}")
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    if options.out is not None:
        report.write_run(options, result, contract)
    for name, metric in metrics.items():
        print(f"{options.workload} {name} {metric['value']:.6g} {metric['unit']}")
    tally = result.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
