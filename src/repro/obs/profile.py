"""Two-sided continuous profiling: sampled wall-clock stacks and
deterministic per-stage cost accounting.

The rest of the obs stack explains *where sim-time goes* (span trees,
critical paths, slow-query families).  This module answers the two
questions those layers cannot:

* **Where does real CPU go?**  :class:`SamplingProfiler` is a daemon
  thread walking :func:`sys._current_frames` at a configurable rate.
  Each sample is tagged with the pipeline *stage* currently open on the
  sampled thread — the tracer pushes/pops a per-thread stage context as
  spans open and close (:func:`span_opened` / :func:`span_closed`), so a
  stack observed while a ``node:*`` span is live is charged to the
  ``node`` stage.  Aggregated stacks export as folded (collapsed) text
  for flamegraph tooling and as speedscope JSON; the profiler measures
  its own overhead (time spent sampling over elapsed wall time) so the
  tracing-overhead budget stays checkable.

* **Which code paths paid which simulated costs?**  :class:`CostProfiler`
  charges the sim-mode resource counters (distance evals, part-key
  lookups, residues compared, blocks scanned, cold-read bytes/seeks, tier-cache hits and
  misses, and the attrition-funnel counts) to ``(stage, code-site)``
  pairs.  Charging happens in simulated event order, so a cost profile
  for a seeded run **replays byte-identically** (:meth:`CostProfiler.
  to_json` is canonical), and the funnel counters it accumulates tile
  the EXPLAIN funnel exactly — both properties are unit-tested.

Hot-path cost when nothing is profiling: one module-level truthiness
check per span open/close and per charge site.  The module deliberately
imports nothing from the rest of the package so the tracer, the query
engine, and the tier cache can all call into it without cycles.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Iterable

#: canonical sim-cost counters a charge may carry (anything else raises,
#: so profiles from different runs stay field-compatible)
COST_COUNTERS: tuple[str, ...] = (
    "distance_evals",
    "key_lookups",
    "residues_compared",
    "blocks_scanned",
    "cold_read_bytes",
    "cold_read_seeks",
    "cache_hits",
    "cache_misses",
    "knn_candidates",
    "identity_pass",
    "cscore_pass",
    "anchors_extended",
    "anchors_merged",
    "gapped_extensions",
    "alignments",
)

#: funnel-stage counters (subset of :data:`COST_COUNTERS`, pipeline order)
#: — per-stage sums over these must tile the EXPLAIN funnel exactly
FUNNEL_COUNTERS: tuple[str, ...] = (
    "knn_candidates",
    "identity_pass",
    "cscore_pass",
    "anchors_extended",
    "anchors_merged",
    "gapped_extensions",
    "alignments",
)

PROFILE_SCHEMA_VERSION = 1

# -- per-thread stage context (set by the tracer) --------------------------------

#: thread ident -> stack of open stage names.  Written by the owning
#: thread, read by the sampler thread; per-entry races only mis-tag a
#: single sample, which is acceptable for a statistical profiler.
_stage_stacks: dict[int, list[str]] = {}

#: running sampling profilers (stage bookkeeping is skipped when empty,
#: keeping the untraced hot path at one truthiness check per span)
_samplers: list["SamplingProfiler"] = []

#: installed cost profilers (``charge`` is a no-op when empty)
_cost_profilers: list["CostProfiler"] = []


def stage_of(name: str) -> str:
    """Span name -> stage: ``node:n004`` is the ``node`` stage."""
    return name.split(":", 1)[0]


def span_opened(name: str) -> None:
    """Tracer hook: a span named *name* just opened on this thread."""
    if not _samplers:
        return
    ident = threading.get_ident()
    stack = _stage_stacks.get(ident)
    if stack is None:
        stack = _stage_stacks[ident] = []
    stack.append(stage_of(name))


def span_closed(name: str) -> None:
    """Tracer hook: the first ``finish`` of a span named *name*.

    Pops the most recent matching stage rather than the top — the sim
    engine interleaves generator processes on one thread, so sibling
    spans can close out of stack order.
    """
    if not _samplers:
        return
    stack = _stage_stacks.get(threading.get_ident())
    if not stack:
        return
    stage = stage_of(name)
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] == stage:
            del stack[i]
            return


def current_stage(ident: int | None = None) -> str | None:
    """The innermost open stage on *ident* (default: this thread)."""
    stack = _stage_stacks.get(
        ident if ident is not None else threading.get_ident()
    )
    return stack[-1] if stack else None


# -- the sampling wall-clock profiler --------------------------------------------


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # keep the path's informative tail: "repro/core/query.py" not the
    # whole checkout prefix, so folded stacks are machine-independent
    for marker in ("/repro/", "\\repro\\"):
        cut = filename.rfind(marker)
        if cut >= 0:
            filename = "repro/" + filename[cut + len(marker):]
            break
    else:
        filename = filename.rsplit("/", 1)[-1].rsplit("\\", 1)[-1]
    return f"{code.co_name} ({filename}:{code.co_firstlineno})"


class SamplingProfiler:
    """Low-overhead statistical wall-clock profiler.

    A daemon thread wakes ``hz`` times per second, snapshots every live
    thread's stack via :func:`sys._current_frames`, tags each with the
    thread's open span stage, and folds it into an aggregate table.  The
    profiler times its own sampling work, so :attr:`overhead` reports the
    fraction of wall time it consumed — the number the <5% tracing budget
    is asserted against.
    """

    def __init__(self, hz: float = 67.0, max_stack: int = 48) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = float(hz)
        self.max_stack = int(max_stack)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        #: (stage, root-first frame tuple) -> sample count
        self._stacks: dict[tuple[str, tuple[str, ...]], int] = {}
        self._samples = 0
        self._sampling_seconds = 0.0
        self._elapsed_base = 0.0
        self._started_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        _samplers.append(self)
        self._thread = threading.Thread(
            target=self._run, name="repro-profile-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if self in _samplers:
            _samplers.remove(self)
        if self._started_at is not None:
            self._elapsed_base += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self._interval):
            begin = time.perf_counter()
            try:
                frames = sys._current_frames()
            except Exception:  # pragma: no cover - interpreter teardown
                break
            for ident, frame in frames.items():
                if ident == own:
                    continue
                stack: list[str] = []
                depth = 0
                while frame is not None and depth < self.max_stack:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()  # root-first
                stage = current_stage(ident) or "idle"
                key = (stage, tuple(stack))
                with self._lock:
                    self._stacks[key] = self._stacks.get(key, 0) + 1
                    self._samples += 1
            with self._lock:
                self._sampling_seconds += time.perf_counter() - begin

    # -- derived ---------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        live = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return self._elapsed_base + live

    @property
    def overhead(self) -> float:
        """Fraction of elapsed wall time spent inside the sampler."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return 0.0
        with self._lock:
            return self._sampling_seconds / elapsed

    def stacks(self) -> dict[tuple[str, tuple[str, ...]], int]:
        with self._lock:
            return dict(self._stacks)

    def stage_shares(self) -> list[dict]:
        """Sampled share per stage, descending."""
        totals: dict[str, int] = {}
        total = 0
        for (stage, _stack), count in self.stacks().items():
            totals[stage] = totals.get(stage, 0) + count
            total += count
        return [
            {
                "stage": stage,
                "samples": count,
                "share": round(count / total, 6) if total else 0.0,
            }
            for stage, count in sorted(
                totals.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def top_functions(self, n: int = 15) -> list[dict]:
        """Leaf (self-time) sample counts per function, descending."""
        totals: dict[str, int] = {}
        total = 0
        for (_stage, stack), count in self.stacks().items():
            if not stack:
                continue
            leaf = stack[-1]
            totals[leaf] = totals.get(leaf, 0) + count
            total += count
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        return [
            {
                "function": name,
                "self_samples": count,
                "share": round(count / total, 6) if total else 0.0,
            }
            for name, count in ranked
        ]

    def snapshot(self) -> dict:
        with self._lock:
            samples = self._samples
        return {
            "running": self.running,
            "hz": self.hz,
            "samples": samples,
            "elapsed_s": round(self.elapsed, 6),
            "overhead": round(self.overhead, 6),
            "stages": self.stage_shares(),
            "top_functions": self.top_functions(),
        }

    # -- exporters -------------------------------------------------------------

    def folded(self) -> str:
        """Collapsed-stack text: ``stage:X;root;...;leaf count`` lines,
        sorted — the input format of flamegraph.pl and friends."""
        lines = []
        for (stage, stack), count in self.stacks().items():
            frames = ";".join((f"stage:{stage}",) + stack)
            lines.append(f"{frames} {count}")
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro-profile") -> dict:
        """The sampled-profile speedscope JSON document."""
        frame_index: dict[str, int] = {}
        frames: list[dict] = []

        def index_of(label: str) -> int:
            if label not in frame_index:
                frame_index[label] = len(frames)
                frames.append({"name": label})
            return frame_index[label]

        samples: list[list[int]] = []
        weights: list[int] = []
        for (stage, stack), count in sorted(self.stacks().items()):
            samples.append(
                [index_of(f"stage:{stage}")] + [index_of(f) for f in stack]
            )
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": "repro.obs.profile",
        }


# -- the deterministic cost profiler ---------------------------------------------


class CostProfiler:
    """Charges sim-mode resource counters to ``(stage, code-site)`` pairs.

    Deterministic by construction: charges are integer adds keyed by
    stable strings, so two runs of the same seeded workload produce the
    same aggregate regardless of thread interleaving, and
    :meth:`to_json` renders a canonical byte sequence.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (stage, site) -> {counter: int}
        self._charges: dict[tuple[str, str], dict[str, int]] = {}

    def charge(self, stage: str, site: str, **costs: int) -> None:
        unknown = [k for k in costs if k not in COST_COUNTERS]
        if unknown:
            raise ValueError(
                f"unknown cost counter(s) {unknown}; "
                f"allowed: {COST_COUNTERS}"
            )
        with self._lock:
            cell = self._charges.get((stage, site))
            if cell is None:
                cell = self._charges[(stage, site)] = {}
            for counter, amount in costs.items():
                if amount:
                    cell[counter] = cell.get(counter, 0) + int(amount)

    # -- aggregation -----------------------------------------------------------

    def charges(self) -> dict[tuple[str, str], dict[str, int]]:
        with self._lock:
            return {key: dict(cell) for key, cell in self._charges.items()}

    def stage_totals(self) -> dict[str, dict[str, int]]:
        """``{stage: {counter: total}}`` across all code sites."""
        out: dict[str, dict[str, int]] = {}
        for (stage, _site), cell in self.charges().items():
            bucket = out.setdefault(stage, {})
            for counter, amount in cell.items():
                bucket[counter] = bucket.get(counter, 0) + amount
        return out

    def counter_totals(self) -> dict[str, int]:
        """``{counter: total}`` across every stage and site."""
        out: dict[str, int] = {}
        for cell in self.charges().values():
            for counter, amount in cell.items():
                out[counter] = out.get(counter, 0) + amount
        return out

    def funnel_totals(self) -> dict[str, int]:
        """The attrition-funnel counters this profile accumulated —
        comparable 1:1 against ``QueryStats.funnel()`` / EXPLAIN."""
        totals = self.counter_totals()
        return {name: totals.get(name, 0) for name in FUNNEL_COUNTERS}

    # -- rendering -------------------------------------------------------------

    def to_dict(self) -> dict:
        sites = {}
        for (stage, site), cell in sorted(self.charges().items()):
            sites.setdefault(stage, {})[site] = {
                counter: cell[counter] for counter in sorted(cell)
            }
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "counters": sites,
            "totals": {
                counter: total
                for counter, total in sorted(self.counter_totals().items())
            },
        }

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, fixed separators): equal
        profiles are equal bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def install_cost_profiler(profiler: CostProfiler) -> CostProfiler:
    if profiler not in _cost_profilers:
        _cost_profilers.append(profiler)
    return profiler


def uninstall_cost_profiler(profiler: CostProfiler) -> None:
    if profiler in _cost_profilers:
        _cost_profilers.remove(profiler)


def charge(stage: str, site: str, **costs: int) -> None:
    """Charge *costs* to every installed cost profiler (no-op when none)."""
    if not _cost_profilers:
        return
    for profiler in _cost_profilers:
        profiler.charge(stage, site, **costs)


# -- the combined serving profiler -----------------------------------------------


class Profiler:
    """Both sides under one start/snapshot/stop lifecycle — what the
    serving gateway's PROFILE verb and ``repro profile`` drive."""

    def __init__(self, hz: float = 67.0) -> None:
        self.sampler = SamplingProfiler(hz=hz)
        self.cost = CostProfiler()

    @property
    def running(self) -> bool:
        return self.sampler.running

    def start(self) -> "Profiler":
        install_cost_profiler(self.cost)
        self.sampler.start()
        return self

    def stop(self) -> dict:
        self.sampler.stop()
        uninstall_cost_profiler(self.cost)
        return self.snapshot()

    def snapshot(self) -> dict:
        return {
            "running": self.running,
            "sampling": self.sampler.snapshot(),
            "cost": self.cost.to_dict(),
        }


def write_profile_artifacts(
    out_dir: str,
    profiler: Profiler,
    name: str = "profile",
) -> dict[str, str]:
    """Write the three profile artifacts into *out_dir*:

    * ``PROFILE.json`` — the deterministic cost profile (canonical bytes);
    * ``<name>.folded`` — collapsed stacks for flamegraph tooling;
    * ``<name>.speedscope.json`` — the speedscope document.

    Returns ``{kind: path}`` for the files written.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    cost_path = os.path.join(out_dir, "PROFILE.json")
    with open(cost_path, "w", encoding="utf-8") as handle:
        handle.write(profiler.cost.to_json())
    paths["cost"] = cost_path
    folded_path = os.path.join(out_dir, f"{name}.folded")
    with open(folded_path, "w", encoding="utf-8") as handle:
        handle.write(profiler.sampler.folded())
    paths["folded"] = folded_path
    speed_path = os.path.join(out_dir, f"{name}.speedscope.json")
    with open(speed_path, "w", encoding="utf-8") as handle:
        json.dump(profiler.sampler.speedscope(name=name), handle,
                  separators=(",", ":"), sort_keys=True)
    paths["speedscope"] = speed_path
    return paths
