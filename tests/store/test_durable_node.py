"""Crash-window properties of :class:`repro.store.durable.DurableNodeState`.

The two invariants every test here circles back to:

* **never lose an acked insert** — once ``append_insert`` returns ``True``,
  the block survives any crash, torn write, or checkpoint cycle;
* **never resurrect a dropped block** — once the node is rebuilt without
  it (``reset`` and the survivors inserted again, as
  ``StorageNode.drop_blocks`` does), no replay brings the block back.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.store.disk import NodeDisk
from repro.store.durable import (
    SNAPSHOT_FILE,
    WAL_FILE,
    DurableNodeState,
    RecoveredState,
)

SEEDS = [0, 7, 31]


def fresh(threshold: int = 512) -> DurableNodeState:
    return DurableNodeState(NodeDisk(), "n0", checkpoint_threshold=threshold)


def codes_for(block_id: int, width: int = 24) -> np.ndarray:
    rng = np.random.default_rng(block_id + 1)
    return rng.integers(0, 24, size=width, dtype=np.uint8)


class TestRoundTrip:
    def test_insert_replay_round_trip(self):
        durable = fresh()
        for block_id in range(10):
            assert durable.append_insert(block_id, codes_for(block_id))
        state = durable.replay()
        assert state.block_ids == list(range(10))
        assert state.torn_records == 0 and state.crc_errors == 0
        for row, block_id in enumerate(state.block_ids):
            assert np.array_equal(state.codes[row], codes_for(block_id))

    def test_insert_overwrites(self):
        durable = fresh()
        durable.append_insert(1, codes_for(1))
        durable.append_insert(2, codes_for(2))
        new_codes = codes_for(99)
        durable.append_insert(2, new_codes)
        state = durable.replay()
        assert state.block_ids == [1, 2]
        assert np.array_equal(state.codes[1], new_codes)

    @pytest.mark.parametrize("where", ["mid-log", "tail"])
    def test_a_drop_record_replays_as_an_unknown_op(self, where):
        """Nothing journals a drop (a node drops blocks by rebuilding), so
        a record with op 2 — the format's old drop — is damage: counted in
        ``crc_errors``, removing nothing, and the records around it hold."""
        durable = fresh()
        durable.append_insert(1, codes_for(1))
        payload = struct.pack("<Bq", 2, 1)
        durable.disk.append(WAL_FILE, struct.pack(
            "<II", len(payload), zlib.crc32(payload)) + payload)
        if where == "mid-log":
            durable.append_insert(2, codes_for(2))
        state = durable.replay()
        assert state.block_ids == ([1, 2] if where == "mid-log" else [1])
        assert state.crc_errors == 1 and state.torn_records == 0

    def test_empty_device_replays_empty(self):
        state = fresh().replay()
        assert isinstance(state, RecoveredState)
        assert state.block_ids == [] and state.codes is None


class TestCheckpoint:
    def test_threshold_triggers_automatic_checkpoint(self):
        durable = fresh(threshold=8)
        for block_id in range(20):
            assert durable.append_insert(block_id, codes_for(block_id))
        # The WAL was folded into the snapshot at least once…
        assert durable.disk.exists(SNAPSHOT_FILE)
        assert durable.wal_records < 8
        # …and nothing acked was lost across the fold.
        assert durable.replay().block_ids == list(range(20))

    def test_checkpoint_preserves_original_digests(self):
        durable = fresh()
        durable.append_insert(5, codes_for(5))
        before = durable.digest(5)
        assert durable.checkpoint()
        assert durable.digest(5) == before
        assert durable.digest(5) == zlib.crc32(codes_for(5).tobytes())
        assert not durable.disk.exists(WAL_FILE)

    def test_checkpoint_never_recertifies_corrupt_bytes(self):
        durable = fresh()
        durable.append_insert(3, codes_for(3))
        durable.corrupt_block(3, bit=12)
        assert durable.verify_many([3]) == [False]
        # The checkpoint copies the rotted payload byte-for-byte with its
        # ORIGINAL digest: corruption stays detectable after the fold.
        assert durable.checkpoint()
        assert durable.verify_many([3]) == [False]

    def test_append_after_checkpoint_stays_coherent(self):
        # Regression guard: the extent cache must be rebuilt before the
        # post-checkpoint incremental update (offsets moved into the
        # snapshot; stale WAL extents would read garbage).
        durable = fresh(threshold=4)
        for block_id in range(13):
            assert durable.append_insert(block_id, codes_for(block_id))
            for seen in range(block_id + 1):
                assert durable.verify_many([seen]) == [True], (block_id, seen)
        assert durable.replay().block_ids == list(range(13))


class TestCrashDuringWalAppend:
    def test_torn_append_is_not_acked_and_tail_is_truncated(self):
        durable = fresh()
        assert durable.append_insert(0, codes_for(0))
        durable.disk.tear_next_append()
        assert not durable.append_insert(1, codes_for(1))
        assert durable.unacked_writes == 1
        state = durable.replay()
        # The acked block survives; the torn record is truncated away.
        assert state.block_ids == [0]
        assert state.torn_records == 1
        assert durable.verify_many([0]) == [True]

    def test_appends_after_torn_tail_land_cleanly(self):
        durable = fresh()
        durable.append_insert(0, codes_for(0))
        durable.disk.tear_next_append()
        assert not durable.append_insert(1, codes_for(1))
        # The next writer materialises, truncates the torn tail, appends.
        assert durable.append_insert(2, codes_for(2))
        state = durable.replay()
        assert state.block_ids == [0, 2]
        assert durable.verify_many([0, 2]) == [True, True]


    @pytest.mark.parametrize("payload", [b"", b"\x01"], ids=["empty", "short"])
    def test_header_less_tail_is_a_torn_record(self, payload):
        # A zero-filled tail frames as length 0, crc 0, and crc32(b"") == 0,
        # so the empty record passes its CRC; it, or an insert cut short of
        # its header, is a torn write, not a record to apply.
        durable = fresh()
        assert durable.append_insert(1, codes_for(1))
        frame = struct.pack("<II", len(payload), zlib.crc32(payload))
        durable.disk.append(WAL_FILE, frame + payload)
        recovered = DurableNodeState(durable.disk, "n0")
        assert recovered.manifest_ids() == [1]
        assert recovered.status()["torn_records"] == 1
        assert recovered.replay().block_ids == [1]
        assert recovered.append_insert(2, codes_for(2))
        assert DurableNodeState(durable.disk, "n0").manifest_ids() == [1, 2]

    def test_empty_record_mid_log_is_a_crc_error(self):
        durable = fresh()
        assert durable.append_insert(1, codes_for(1))
        later = fresh()
        assert later.append_insert(2, codes_for(2))
        durable.disk.append(WAL_FILE, bytes(8) + later.disk.read(WAL_FILE))
        state = DurableNodeState(durable.disk, "n0").replay()
        assert state.block_ids == [1, 2]
        assert (state.torn_records, state.crc_errors) == (0, 1)
        assert durable.verify_many([1, 2]) == [True, True]


class TestCrashDuringSnapshot:
    def test_torn_checkpoint_keeps_previous_snapshot_and_wal(self):
        durable = fresh()
        for block_id in range(6):
            durable.append_insert(block_id, codes_for(block_id))
        assert durable.checkpoint()
        durable.append_insert(6, codes_for(6))
        durable.disk.tear_next_append()  # tears the snapshot's tmp file
        assert not durable.checkpoint()
        # Old snapshot + WAL both intact: zero acked inserts lost.
        state = durable.replay()
        assert state.block_ids == list(range(7))
        assert state.snapshot_blocks == 6 and state.wal_records == 1

    def test_corrupt_snapshot_is_rejected_wholesale(self):
        durable = fresh()
        durable.append_insert(0, codes_for(0))
        assert durable.checkpoint()
        # Rot inside the snapshot body fails the whole-file CRC: the
        # snapshot cannot be trusted at all, so replay starts empty.
        durable.disk.flip_bit(SNAPSHOT_FILE, durable.disk.size(SNAPSHOT_FILE) - 1)
        state = durable.replay()
        assert state.snapshot_corrupt
        assert state.block_ids == []


class TestDiskFull:
    def test_full_disk_refuses_ack(self):
        durable = fresh()
        assert durable.append_insert(0, codes_for(0))
        durable.disk.full = True
        assert not durable.append_insert(1, codes_for(1))
        assert not durable.append_insert(0, codes_for(99))
        assert durable.unacked_writes == 2
        durable.disk.full = False
        assert durable.append_insert(1, codes_for(1))
        assert durable.replay().block_ids == [0, 1]


class TestBitRot:
    def test_mid_log_crc_failure_is_applied_and_counted(self):
        durable = fresh()
        for block_id in range(3):
            durable.append_insert(block_id, codes_for(block_id))
        # Flip a payload bit of the FIRST record: mid-log rot, not a torn
        # tail — replay must keep the later records (truncating here would
        # lose acked data) and let digests flag the rotted block.
        durable.corrupt_block(0, bit=8)
        state = durable.replay()
        assert state.block_ids == [0, 1, 2]
        assert state.torn_records == 0
        assert durable.verify_many([0]) == [False]
        assert durable.verify_many([1, 2]) == [True, True]


@pytest.mark.parametrize("seed", SEEDS)
class TestCrashWindowProperty:
    """Randomised op/fault interleavings: acked state always survives."""

    def test_acked_never_lost_dropped_never_resurrected(self, seed):
        rng = np.random.default_rng(seed)
        durable = fresh(threshold=16)
        acked: dict[int, bytes] = {}
        for step in range(200):
            block_id = int(rng.integers(0, 40))
            fault = rng.random()
            if fault < 0.08:
                durable.disk.tear_next_append()
            elif fault < 0.12:
                durable.disk.full = True
            if rng.random() < 0.25 and acked:
                # Drop by rebuilding: every survivor is inserted again, and
                # one whose insert is refused or torn is no longer acked.
                victim = int(rng.choice(list(acked)))
                del acked[victim]
                durable.reset()
                for survivor, payload in list(acked.items()):
                    codes = np.frombuffer(payload, dtype=np.uint8)
                    if not durable.append_insert(survivor, codes):
                        del acked[survivor]
            else:
                codes = codes_for(block_id * 1000 + step)
                if durable.append_insert(block_id, codes):
                    acked[block_id] = codes.tobytes()
            durable.disk.full = False
            durable.disk._tear_next = False  # disarm unspent tears

        state = durable.replay()
        recovered = dict(zip(state.block_ids,
                             (bytes(row[:len(acked[b])]) if b in acked else b""
                              for b, row in zip(state.block_ids, state.codes))))
        # Every acked insert is present with exactly the acked bytes…
        for block_id, payload in acked.items():
            assert block_id in recovered, f"acked block {block_id} lost"
            assert recovered[block_id] == payload
        # …and nothing else was resurrected.
        assert set(state.block_ids) == set(acked)

    def test_replay_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        durable = fresh(threshold=16)
        for step in range(60):
            if rng.random() < 0.1:
                durable.disk.tear_next_append()
            durable.append_insert(int(rng.integers(0, 20)),
                                  codes_for(step))
            durable.disk._tear_next = False
        first = durable.replay()
        second = durable.replay()
        assert first.block_ids == second.block_ids
        assert np.array_equal(first.codes, second.codes)
