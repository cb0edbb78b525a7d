"""Durability and integrity: crash recovery, silent bit rot, anti-entropy.

Run with::

    python examples/durability.py

Walks the two proof obligations of the ``repro.store`` durability layer:

* **Crash consistency** — every write a node acknowledges is journalled to
  a checksummed write-ahead log before the ack; a crash wipes RAM entirely,
  and recovery replays snapshot + WAL into a rebuilt in-memory index.  The
  experiment crashes one node per group mid-batch, recovers each strictly
  from durable state, and then proves the recovered cluster answers a
  fresh probe batch **byte-identically** to a twin cluster that never
  crashed.

* **Anti-entropy scrubbing** — silent bit rot is injected into durable
  block payloads; a cadenced scrubber digest-compares replica copies,
  quarantines the rotted ones, and heals them back from a verified
  replica through the ordinary re-replication path.  Meanwhile verified
  reads route queries around the rot, so no answer is ever served from
  corrupt bytes.  The same loop then runs on a spilled deployment, whose
  nodes keep their blocks in compressed block files: the flip lands in a
  page of the file, and the scrubber finds and heals it there.  Last, a
  spilled node's page rots while the node is down: recovery drops the
  rows that fail their digest instead of replaying them, and
  re-replication restores them from a healthy replica.

Everything derives from one seed, so both experiments replay
byte-identically — the contract the ``scrub-smoke`` CI job asserts across
a seed matrix.
"""

from __future__ import annotations

from collections import Counter

from repro.faults.scenario import twin_deployments
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.scenario import PARAMS, answer_signature, drive
from repro.store.scenario import (
    FLIP_AT,
    SCRUB_INTERVAL,
    run_durability_scenario,
    run_scrub_scenario,
)

SEED = 0


def describe(title: str, result) -> None:
    print(f"--- {title} ---")
    for key, value in result.summary_rows():
        print(f"  {key:>22}: {value}")
    print()


def main() -> None:
    # 1. Crash + recover: durable state must reconstruct the node exactly.
    crash = run_durability_scenario(seed=SEED)
    describe("crash mid-batch, recover from snapshot+WAL", crash)
    assert crash.identical, (
        f"recovered cluster diverged on {crash.mismatched_queries}"
    )
    assert crash.blocks_recovered > 0
    for victim, report in crash.recovery.items():
        assert report["crc_errors"] == 0, (victim, report)
        print(f"  {victim}: replayed {report['blocks']} blocks "
              f"(snapshot {report['snapshot_blocks']}, "
              f"WAL {report['wal_records']} records)")
    print()

    # 2. Bit rot + scrub: detected, healed, and never visible in answers.
    rot = run_scrub_scenario(seed=SEED)
    describe("inject bit rot, scrub, heal from verified replicas", rot)
    assert rot.resolved, "every flip must be detected and healed"
    assert not rot.wrong_answers, (
        f"rot leaked into answers: {rot.wrong_answers}"
    )
    assert rot.unhealed == 0, "post-run audit must come back clean"

    print("corruption event chain (cause -> effect order):")
    for kind in rot.event_chain():
        print(f"  {kind}")
    print()

    # Determinism: the same seed replays the whole experiment exactly.
    replay = run_scrub_scenario(seed=SEED)
    assert replay.flips == rot.flips
    assert replay.event_chain() == rot.event_chain()

    # 3. The same rot on spilled nodes: the block file is the durable copy.
    spilled_rot()
    # 4. Rot in the block file of a spilled node that is down.
    spilled_crash_rot()
    print("OK: crashes recovered byte-identically; rot detected, healed, "
          "and never served, in RAM and in block files")


def spilled_rot() -> None:
    control, mendel, probes, _ = twin_deployments(
        SEED, 12, 6, replication=2, group_count=2, group_size=3
    )
    control.spill(cache_bytes=1 << 14)
    mendel.spill(cache_bytes=1 << 14)
    node = mendel.index.topology.groups[0].nodes[0]
    block = node.durable.manifest_ids()[0]
    horizon = FLIP_AT + SCRUB_INTERVAL * 12
    schedule = FaultSchedule(
        events=(FaultEvent.bit_flip(FLIP_AT, node.node_id, block=block, bit=3),),
        seed=SEED,
        scrub_interval=SCRUB_INTERVAL,
        horizon=horizon,
    )
    run = drive(mendel, probes, "spilled-scrub", SEED, faults=schedule,
                arrival_interval=horizon / (len(probes) + 1))
    logged = Counter(event.kind for event in run.monitor.events.events())
    print("--- inject bit rot into a block file, scrub, heal ---")
    for line in run.chaos_log:
        if "bit_flip" in line:
            print(f"  {line.strip()}")
    print(f"  {'corruptions detected':>22}: {logged['corruption_detected']}")
    print(f"  {'heals':>22}: {logged['scrub_heal']}")
    print()
    assert f"durable block {block} flipped" in "".join(run.chaos_log)
    assert logged["corruption_detected"] > 0 and logged["scrub_heal"] > 0
    assert node.tiered and node.verify_blocks([block]) == [True]
    expected = control.engine.run_batch(probes, PARAMS)
    assert [answer_signature(r) for r in run.reports] == [
        answer_signature(r) for r in expected
    ], "rot in a block file leaked into answers"


def spilled_crash_rot() -> None:
    control, mendel, probes, _ = twin_deployments(
        SEED, 12, 6, replication=2, group_count=2, group_size=3
    )
    control.spill(cache_bytes=1 << 14)
    mendel.spill(cache_bytes=1 << 14)
    node = mendel.index.topology.groups[0].nodes[0]
    mendel.fail_node(node.node_id)
    node.durable.corrupt_block(node.durable.manifest_ids()[0], 3)
    mendel.recover_node(node.node_id)
    report = node.last_recovery
    audit = mendel.index.scrub(heal=False)
    print("--- rot a crashed spilled node's block file, recover ---")
    print(f"  {'blocks replayed':>22}: {report['blocks']}")
    print(f"  {'rows failing digest':>22}: {report['crc_errors']}")
    print(f"  {'scrub mismatches':>22}: {audit.mismatches}")
    print()
    assert report["crc_errors"] > 0, report
    assert audit.mismatches == 0, "a rotted row was replayed as a replica"
    served = mendel.engine.run_batch(probes, PARAMS)
    expected = control.engine.run_batch(probes, PARAMS)
    assert [answer_signature(r) for r in served] == [
        answer_signature(r) for r in expected
    ], "rot replayed from a block file leaked into answers"


if __name__ == "__main__":
    main()
