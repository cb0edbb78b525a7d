"""Medians, quartiles and pair wins of the alternating-pair CSVs.

    python summary.py pairs_<workload>.csv [...]

For each end-to-end metric: parent median [quartiles] -> change median
[quartiles], the relative move of the medians, how many pairs the change
won (ties count for neither side), and whether the move is larger than
the parent's own quartile spread.
"""

import csv
import statistics
import sys

LOWER = ["setup_s", "query_p50_ms", "cpu_ms_per_query", "sim_turnaround_ms",
         "peak_rss_mb"]
HIGHER = ["queries_per_s", "recall"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> None:
    for path in sys.argv[1:]:
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        print(path)
        failed = {side: sum(int(r["failed"]) for r in rows if r["side"] == side)
                  for side in ("parent", "change")}
        print(f"  failed operations: parent {failed['parent']}, "
              f"change {failed['change']}")
        for metric in [*LOWER, *HIGHER]:
            if metric not in rows[0]:
                continue
            by_pair = {}
            for row in rows:
                by_pair.setdefault(row["pair"], {})[row["side"]] = float(row[metric])
            by_pair = {k: p for k, p in by_pair.items() if len(p) == 2}
            parent = [p["parent"] for p in by_pair.values()]
            change = [p["change"] for p in by_pair.values()]
            pq, cq = quartiles(parent), quartiles(change)
            sign = -1 if metric in LOWER else 1
            wins = sum(sign * (p["change"] - p["parent"]) > 0
                       for p in by_pair.values())
            move = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            spread = pq[2] - pq[0]
            print(f"  {metric:18s} {pq[1]:10.4g} [{pq[0]:.4g}-{pq[2]:.4g}] -> "
                  f"{cq[1]:10.4g} [{cq[0]:.4g}-{cq[2]:.4g}]  {100 * move:+6.1f} %"
                  f"  change better in {wins}/{len(by_pair)}"
                  f"  |move| {'>' if abs(cq[1] - pq[1]) > spread else '<='}"
                  f" parent IQR")


if __name__ == "__main__":
    main()
