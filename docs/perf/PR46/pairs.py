"""Alternating pairs of the benchmark's own command on two checkouts.

    python pairs.py <parent checkout> <change checkout> <workload> <out.csv> [pairs] [seed]

Runs ``python3 perfbench/run.py --workload <workload> --seed <seed>`` (23 by
default) in each checkout,
parent first in even pairs and change first in odd ones, and writes one CSV
row per run (its ``correct`` / ``attempted`` / ``failed`` and every
end-to-end metric it printed).
"""

import csv
import json
import subprocess
import sys


def main() -> None:
    parent, change, workload, out = sys.argv[1:5]
    pairs = int(sys.argv[5]) if len(sys.argv) > 5 else 10
    seed = sys.argv[6] if len(sys.argv) > 6 else "23"
    trees = {"parent": parent, "change": change}
    rows = []
    for pair in range(pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload, "--seed", seed],
                cwd=trees[side], capture_output=True, text=True, timeout=900,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append({
                "pair": pair, "side": side, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                **{name: m["value"] for name, m in result["metrics"].items()},
            })
            print(pair, side, round(rows[-1]["query_p50_ms"], 2), flush=True)
            with open(out, "w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)


if __name__ == "__main__":
    main()
