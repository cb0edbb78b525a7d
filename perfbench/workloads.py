"""Seed-driven inputs for the four workloads.

Everything ``repro`` receives — the database, the queries, the open-loop
arrival schedule — is generated here from ``--seed`` (and sized from
``--seconds``), written to disk as FASTA + ``schedule.json`` when an output
directory is given, and can be loaded back from those files alone.

Deployments (the structure is the issue's; family counts were shrunk to fit
the driver's time cap, see README.md):

* **D1** — ``FamilySpec(20, 4, 150)`` on 4 groups x 3 nodes: the
  ``repro bench --regress`` shape at two thirds of its families.
* **D2** — ``FamilySpec(12, 5, 300)`` on 2 groups x 2 nodes, 32-residue
  segments, 512-row buckets, replication 2: the ``repro.tier.scenario``
  shape plus replication.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import WORKLOADS
from repro import MendelConfig, QueryParams
from repro.bench.workloads import FamilySpec, generate_family_database
from repro.seq.fasta import read_fasta, write_fasta
from repro.seq.mutate import mutate_to_identity, sample_read
from repro.seq.records import SequenceRecord, SequenceSet

#: ``--seconds`` the counts below were sized for; other values scale them.
BASE_SECONDS = 20.0

D1_SPEC = FamilySpec(families=20, members_per_family=4, length=150)
D2_SPEC = FamilySpec(families=12, members_per_family=5, length=300)

READ_ERROR_RATE = 0.02
READ_PARAMS = QueryParams(k=8, n=6, i=0.8)
#: Table I defaults except k=8 (the Fig. 6d protocol)
HOMOLOGY_PARAMS = QueryParams(k=8, n=8, i=0.5, c=0.5)
READ_LENGTHS = (150, 300, 600)
HOMOLOGY_IDENTITIES = (0.9, 0.7, 0.5)

#: a stitched read never carries a piece shorter than this, so every
#: recorded source segment is long enough to be found
MIN_PIECE = 40

# serve_gateway: shares of --seconds per phase, and the open-loop rates.
# ``ladder`` is the length of one step: today one step runs (8 req/s fails),
# and draining it takes most of the 7 % the shares leave over; each further
# step that passes one day adds its length to the run.
SERVE_SHARES = {"fixed": 0.35, "ladder": 0.20, "closed": 0.33, "tcp_hit": 0.05}
SERVE_READ_LENGTH = 300
#: The issue's rate.  The fixed phase is also the ladder's first step.
FIXED_RATE = 2.0
#: The issue's 3, 4, 6, 8, 12, 16, 24, 32 thinned to steps of several seconds.
#: The box's two speeds put the gateway's capacity at 4 or at 6 req/s, so a
#: step at 3, 4 or 6 would pass or fail with the machine's mood, not the code
#: (at 3 req/s a slow spell plus one stall of the VM is enough).
LADDER_RATES = (8, 16, 32)
CLOSED_CALLERS = 2

# storage_lifecycle: shares of --seconds for the two time-boxed sweeps; the
# fixed-count phases (insert, flush, spill, recover, scrub, unspill) take the
# rest
STORAGE_SHARES = {"cold": 0.40, "fit": 0.20}
STORAGE_INITIAL_SEQUENCES = 24
STORAGE_BATCH = 3
STORAGE_READ_LENGTH = 150
STORAGE_POOL = 12
STORAGE_RECHECK = 4


def scaled(count: int, seconds: float, floor: int = 1) -> int:
    """*count* was chosen for ``BASE_SECONDS``; scale it to *seconds*."""
    return max(floor, int(round(count * seconds / BASE_SECONDS)))


@dataclass
class Read:
    """One query plus what the generator knows about where it came from."""

    record: SequenceRecord
    cls: str
    #: (source sequence id, offset in the read, length) per stitched piece
    sources: tuple[tuple[str, int, int], ...]


@dataclass
class Inputs:
    workload: str
    seed: int
    seconds: float
    database: SequenceSet
    config: MendelConfig
    params: QueryParams
    #: pool name -> reads, in the order the workload consumes them
    pools: dict[str, list[Read]]
    #: workload-specific numbers (rates, due times, batch shape), among them
    #: ``repeatable_queries``: how many leading queries of the timed sweep
    #: ``sim_turnaround_ms`` and ``recall`` are taken over
    plan: dict = field(default_factory=dict)


# -- generators ------------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def stitched_read(
    records: list[SequenceRecord],
    length: int,
    rng: np.random.Generator,
    seq_id: str,
    cls: str,
) -> Read:
    """A read of *length* stitched from error-laden samples of database
    sequences, recording each piece's source id."""
    pieces: list[np.ndarray] = []
    sources: list[tuple[str, int, int]] = []
    remaining = length
    while remaining > 0:
        source = records[int(rng.integers(0, len(records)))]
        take = min(remaining, len(source))
        leftover = remaining - take
        if 0 < leftover < MIN_PIECE:
            take -= MIN_PIECE - leftover
        piece = sample_read(source, take, rng=rng, error_rate=READ_ERROR_RATE)
        sources.append((source.seq_id, length - remaining, take))
        pieces.append(piece.codes)
        remaining -= take
    record = SequenceRecord(
        seq_id=seq_id, codes=np.concatenate(pieces), alphabet=records[0].alphabet
    )
    return Read(record=record, cls=cls, sources=tuple(sources))


def stitched_reads(
    records: list[SequenceRecord],
    count: int,
    length: int,
    rng: np.random.Generator,
    prefix: str,
) -> list[Read]:
    cls = f"len{length}"
    return [
        stitched_read(records, length, rng, f"{prefix}-{cls}-{i:05d}", cls)
        for i in range(count)
    ]


def homology_mutants(
    records: list[SequenceRecord],
    count: int,
    identity: float,
    rng: np.random.Generator,
    prefix: str,
) -> list[Read]:
    """Whole-sequence mutants of database members at *identity*."""
    cls = f"id{identity:.2f}"
    out = []
    for i in range(count):
        source = records[int(rng.integers(0, len(records)))]
        mutant = mutate_to_identity(
            source, identity, rng=rng, seq_id=f"{prefix}-{cls}-{i:05d}"
        )
        mutant.description = ""
        out.append(
            Read(record=mutant, cls=cls, sources=((source.seq_id, 0, len(source)),))
        )
    return out


def open_loop_schedule(rate: float, duration: float) -> list[float]:
    """Due times (seconds from the phase start) of an open loop sending
    *rate* requests per second for *duration* seconds."""
    count = max(1, int(round(rate * duration)))
    return [i / rate for i in range(count)]


def d1_config(seed: int) -> MendelConfig:
    return MendelConfig(group_count=4, group_size=3, seed=seed)


def d2_config(seed: int) -> MendelConfig:
    return MendelConfig(
        group_count=2,
        group_size=2,
        bucket_capacity=512,
        segment_length=32,
        replication=2,
        seed=seed,
    )


def _class_pools(by_class: list[list[Read]]) -> dict[str, list[Read]]:
    """The first read of each class warms up; the rest are interleaved, so
    that any whole number of rounds has the same class mix."""
    return {
        "warmup": [reads[0] for reads in by_class],
        "timed": [read for round_ in zip(*(reads[1:] for reads in by_class))
                  for read in round_],
    }


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The inputs of one run: a pure function of its arguments."""
    if workload == "read_mapping":
        database = generate_family_database(D1_SPEC, rng=seed)
        rng = _rng(seed, 1)
        per_class = scaled(200, seconds, floor=4)
        pools = _class_pools([
            stitched_reads(list(database), per_class + 1, length, rng, "rm")
            for length in READ_LENGTHS
        ])
        # (a slow spell still completes 75 queries in 20 s)
        plan = {"repeatable_queries": scaled(60, seconds, floor=3)}
        return Inputs(workload, seed, seconds, database, d1_config(seed),
                      READ_PARAMS, pools, plan)

    if workload == "homology_search":
        database = generate_family_database(D1_SPEC, rng=seed)
        rng = _rng(seed, 2)
        per_class = scaled(100, seconds, floor=4)
        pools = _class_pools([
            homology_mutants(list(database), per_class + 1, identity, rng, "hs")
            for identity in HOMOLOGY_IDENTITIES
        ])
        # (a slow spell still completes 44 queries in 20 s)
        plan = {"repeatable_queries": scaled(30, seconds, floor=3)}
        return Inputs(workload, seed, seconds, database, d1_config(seed),
                      HOMOLOGY_PARAMS, pools, plan)

    if workload == "serve_gateway":
        database = generate_family_database(D1_SPEC, rng=seed)
        records = list(database)
        rng = _rng(seed, 3)
        share = {name: part * seconds for name, part in SERVE_SHARES.items()}
        step = share["ladder"]
        fixed_due = open_loop_schedule(FIXED_RATE, share["fixed"])
        ladder_due = [open_loop_schedule(rate, step) for rate in LADDER_RATES]

        def reads(count: int, prefix: str) -> list[Read]:
            return stitched_reads(records, count, SERVE_READ_LENGTH, rng, prefix)

        pools = {
            "warmup": reads(3, "sg-warm"),
            "fixed": reads(len(fixed_due), "sg-fixed"),
            "ladder": reads(sum(len(due) for due in ladder_due), "sg-ladder"),
            # Distinct reads, so the result cache never answers: enough for
            # a gateway eight times faster than the one this was sized on.
            "closed": reads(scaled(480, seconds, floor=8), "sg-closed"),
        }
        plan = {
            "phase_seconds": share,
            "fixed_rate": FIXED_RATE,
            "fixed_due": fixed_due,
            "ladder_rates": list(LADDER_RATES),
            "ladder_step_seconds": step,
            "ladder_due": ladder_due,
            "closed_callers": CLOSED_CALLERS,
        }
        return Inputs(workload, seed, seconds, database, d1_config(seed),
                      READ_PARAMS, pools, plan)

    if workload == "storage_lifecycle":
        database = generate_family_database(D2_SPEC, rng=seed)
        records = list(database)
        rng = _rng(seed, 4)
        batches = scaled(
            (len(records) - STORAGE_INITIAL_SEQUENCES) // STORAGE_BATCH,
            seconds, floor=2,
        )
        batches = min(
            batches, (len(records) - STORAGE_INITIAL_SEQUENCES) // STORAGE_BATCH
        )
        indexed = records[: STORAGE_INITIAL_SEQUENCES + batches * STORAGE_BATCH]
        pool = stitched_reads(
            indexed, 1 + scaled(STORAGE_POOL, seconds, floor=3),
            STORAGE_READ_LENGTH, rng, "sl",
        )
        plan = {
            "phase_seconds": {
                name: part * seconds for name, part in STORAGE_SHARES.items()
            },
            "initial_sequences": STORAGE_INITIAL_SEQUENCES,
            "batch_size": STORAGE_BATCH,
            "batches": batches,
            "recheck_reads": min(STORAGE_RECHECK, len(pool) - 1),
            "cold_cache_fraction": 0.10,
            "fit_cache_fraction": 2.0,
            "page_rows": 256,
        }
        return Inputs(workload, seed, seconds, database, d2_config(seed),
                      READ_PARAMS, {"warmup": pool[:1], "sweep": pool[1:]}, plan)

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# -- files -----------------------------------------------------------------------


def write_inputs(inputs: Inputs, out_dir: Path) -> None:
    """``database.fasta`` + ``reads.fasta`` + ``schedule.json``: enough to
    replay the run without the generator."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_fasta(inputs.database, out_dir / "database.fasta")
    write_fasta(
        (read.record for pool in inputs.pools.values() for read in pool),
        out_dir / "reads.fasta",
    )
    schedule = {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "seconds": inputs.seconds,
        "config": dataclasses.asdict(inputs.config),
        "params": dataclasses.asdict(inputs.params),
        "pools": {
            name: [
                {"id": read.record.seq_id, "class": read.cls,
                 "sources": [list(source) for source in read.sources]}
                for read in pool
            ]
            for name, pool in inputs.pools.items()
        },
        "plan": inputs.plan,
    }
    (out_dir / "schedule.json").write_text(json.dumps(schedule, indent=1) + "\n")


def load_inputs(in_dir: Path) -> Inputs:
    """Inverse of :func:`write_inputs`."""
    schedule = json.loads((in_dir / "schedule.json").read_text())
    database = read_fasta(in_dir / "database.fasta", "protein")
    records = read_fasta(in_dir / "reads.fasta", "protein")
    pools = {
        name: [
            Read(
                record=records[entry["id"]],
                cls=entry["class"],
                sources=tuple(tuple(source) for source in entry["sources"]),
            )
            for entry in pool
        ]
        for name, pool in schedule["pools"].items()
    }
    return Inputs(
        workload=schedule["workload"],
        seed=schedule["seed"],
        seconds=schedule["seconds"],
        database=database,
        config=MendelConfig(**schedule["config"]),
        params=QueryParams(**schedule["params"]),
        pools=pools,
        plan=schedule["plan"],
    )
