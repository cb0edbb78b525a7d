"""Record the banded kernel's calls on a perfbench workload, then time two
checkouts' ``_lockstep`` on them, interleaved.

    python kernel_calls.py record <checkout> <workload> <seed> <out.pkl> [every] [queries]
    python kernel_calls.py replay <parent> <change> <calls.pkl> [rounds]
    python kernel_calls.py peak <checkout> <calls.pkl>

``record`` builds the workload's deployment from
``perfbench.workloads.make_inputs`` (20 s sizing), runs its warm-up pool, then
walks the ``timed`` pool cyclically for *queries* positions (default 1800)
and queries every *every*-th one (default 60), wrapping
``repro.align.gapped._lockstep`` to keep each call's arguments.

``replay`` starts one worker process per checkout, each importing its own
``repro`` and loading the calls.  Every round runs all calls in both workers,
alternating which goes first; a round's time is one worker's
``perf_counter`` total over the calls.  It checks the two workers' outputs are
``np.array_equal`` call by call, and prints each round and the median ratio.

``peak`` runs each call once under ``tracemalloc`` and prints the largest
and the median peak of traced bytes a call allocated.
"""

import pickle
import statistics
import subprocess
import sys
import time


def record(root, workload, seed, out, every=60, queries=1800):
    sys.path[:0] = [root + "/src", root]
    from perfbench.workloads import make_inputs
    from repro.align import gapped
    from repro.core import Mendel

    inputs = make_inputs(workload, int(seed), 20.0)
    mendel = Mendel.build(inputs.database, inputs.config)
    for read in inputs.pools["warmup"]:
        mendel.query(read.record, inputs.params)
    calls = []
    kernel = gapped._lockstep

    def keep(lanes, *rest):
        calls.append(([(q.copy(), s.copy()) for q, s in lanes], *rest))
        return kernel(lanes, *rest)

    pool = inputs.pools["timed"]
    gapped._lockstep = keep
    for position in range(0, int(queries), int(every)):
        mendel.query(pool[position % len(pool)].record, inputs.params)
    gapped._lockstep = kernel
    with open(out, "wb") as handle:
        pickle.dump(calls, handle)
    lanes = [len(call[0]) for call in calls]
    print(f"{workload} seed {seed}: {len(calls)} calls from "
          f"{len(range(0, int(queries), int(every)))} queries, "
          f"{statistics.mean(lanes):.1f} lanes a call")


def worker(root, path):
    sys.path[:0] = [root + "/src"]
    import numpy as np
    from repro.align import gapped

    with open(path, "rb") as handle:
        calls = pickle.load(handle)
    for line in sys.stdin:
        start = time.perf_counter()
        outs = [gapped._lockstep(*call) for call in calls]
        took = time.perf_counter() - start
        digest = [np.concatenate(out).tobytes() for out in outs]
        sys.stdout.buffer.write(pickle.dumps((took, digest)))
        sys.stdout.buffer.write(b"\n--end--\n")
        sys.stdout.flush()


def ask(proc):
    proc.stdin.write(b"go\n")
    proc.stdin.flush()
    data = b""
    while not data.endswith(b"\n--end--\n"):
        data += proc.stdout.readline()
    return pickle.loads(data[: -len(b"\n--end--\n")])


def replay(parent, change, path, rounds=9):
    procs = [subprocess.Popen([sys.executable, __file__, "worker", root, path],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for root in (parent, change)]
    ratios = []
    try:
        for r in range(int(rounds)):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            got = {side: ask(procs[side]) for side in order}
            assert got[0][1] == got[1][1], "outputs differ"
            ratio = got[1][0] / got[0][0]
            ratios.append(ratio)
            print(f"round {r}: parent {got[0][0] * 1e3:.1f} ms, change "
                  f"{got[1][0] * 1e3:.1f} ms, ratio {ratio:.3f}")
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    print(f"median ratio {statistics.median(ratios):.3f} "
          f"(outputs equal on every call)")


def peak(root, path):
    import tracemalloc

    sys.path[:0] = [root + "/src"]
    from repro.align import gapped

    with open(path, "rb") as handle:
        calls = pickle.load(handle)
    peaks = []
    for call in calls:
        tracemalloc.start()
        gapped._lockstep(*call)
        peaks.append((tracemalloc.get_traced_memory()[1], len(call[0])))
        tracemalloc.stop()
    peaks.sort()
    print(f"{root}: largest peak {peaks[-1][0] / 1024:.0f} KiB "
          f"({peaks[-1][1]} lanes), median {peaks[len(peaks) // 2][0] / 1024:.0f} KiB")


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    {"record": record, "replay": replay, "worker": worker,
     "peak": peak}[command](*args)
