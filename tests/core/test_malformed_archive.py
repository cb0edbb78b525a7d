"""Malformed MENDELIX payloads: a payload that passes the container CRC but
does not decode raises :class:`CorruptArchiveError`, before any block is
placed.

A real archive is unpacked, one part of its payload is damaged, and the
payload is re-wrapped under a valid checksum, so only the decoder stands
between the damage and the index.  The damage is a missing array, a
header that is not the saved JSON object (random bytes, a truncated
document, a non-object, a key removed or of the wrong kind), and sequence
lengths that run past the saved residue codes.  :class:`MendelIndex` is
replaced by a tripwire for the malformed loads, so a decoder that let a
payload through would fail the test rather than build a partial index.
Hypothesis draws the damage, seeded from ``CHAOS_SEED`` (the CI matrix
knob).
"""

from __future__ import annotations

import io
import json
import os
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import MendelConfig, persist
from repro.core.index import MendelIndex
from repro.core.persist import (
    _CONTAINER_HEAD,
    FORMAT_VERSION,
    MAGIC,
    CorruptArchiveError,
    load_index,
    save_index,
)
from repro.seq.alphabet import PROTEIN
from repro.seq.generate import random_set

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))

DAMAGE = settings(max_examples=60, deadline=None)

ARRAYS = ("header", "concat", "lengths", "placement")


class Archive:
    """One saved deployment, its payload's arrays and decoded header, and
    a file to write damaged copies to."""

    def __init__(self, directory) -> None:
        database = random_set(count=6, length=60, alphabet=PROTEIN, rng=902)
        self.index = MendelIndex(
            database,
            MendelConfig(group_count=2, group_size=2, sample_size=64, seed=6),
        )
        self.path = directory / "archive.npz"
        save_index(self.index, self.path)
        payload = self.path.read_bytes()[_CONTAINER_HEAD.size:]
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            self.arrays = {key: archive[key] for key in archive.files}
        self.header = json.loads(bytes(self.arrays["header"]).decode())

    def payload(self, **arrays: np.ndarray) -> bytes:
        """The saved payload with *arrays* replacing (``None``: removing)
        the saved ones."""
        kept = {**self.arrays, **arrays}
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            **{key: value for key, value in kept.items() if value is not None},
        )
        return buffer.getvalue()

    def load(self, raw: bytes):
        """Load *raw* as the archive's payload, under a valid checksum."""
        self.path.write_bytes(
            _CONTAINER_HEAD.pack(MAGIC, FORMAT_VERSION, zlib.crc32(raw)) + raw
        )
        return load_index(self.path)

    def refuse(self, raw: bytes) -> None:
        """The damaged payload raises the typed error, and never reaches
        placement."""
        tripwire = mock.Mock(side_effect=AssertionError("decoded a bad archive"))
        with mock.patch.object(persist, "MendelIndex", tripwire):
            with pytest.raises(CorruptArchiveError, match="does not decode"):
                self.load(raw)
        assert not tripwire.called


def as_header(text: str | bytes) -> np.ndarray:
    raw = text.encode() if isinstance(text, str) else text
    return np.frombuffer(raw, dtype=np.uint8)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    return Archive(tmp_path_factory.mktemp("mendelix"))


def test_the_undamaged_payload_loads_the_same_placement(archive):
    loaded = archive.load(archive.payload())
    assert loaded.node_of_block == archive.index.node_of_block
    assert loaded.blocks_of_group == archive.index.blocks_of_group


@seed(SEED)
@DAMAGE
@given(missing=st.sets(st.sampled_from(ARRAYS), min_size=1))
def test_a_missing_array(archive, missing):
    archive.refuse(archive.payload(**{key: None for key in missing}))


@seed(SEED)
@DAMAGE
@given(data=st.data())
def test_a_header_that_is_not_the_saved_json(archive, data):
    header = archive.header
    text = json.dumps(header)
    removed = data.draw(st.sampled_from(sorted(header)))
    # A wrong-kind version is a version this build does not read, not damage.
    retyped = data.draw(st.sampled_from(sorted(set(header) - {"version"})))
    damaged = data.draw(st.one_of(
        st.binary(max_size=64).map(as_header),
        st.integers(0, len(text) - 1).map(lambda cut: as_header(text[:cut])),
        st.one_of(st.integers(), st.lists(st.integers()), st.text()).map(
            lambda value: as_header(json.dumps(value))),
        st.just(as_header(json.dumps(
            {k: v for k, v in header.items() if k != removed}))),
        st.one_of(st.none(), st.booleans(), st.integers()).map(
            lambda value: as_header(json.dumps({**header, retyped: value}))),
    ))
    archive.refuse(archive.payload(header=damaged))


@seed(SEED)
@DAMAGE
@given(data=st.data())
def test_lengths_past_the_residue_codes(archive, data):
    lengths = archive.arrays["lengths"].copy()
    concat = archive.arrays["concat"]
    at = data.draw(st.integers(0, len(lengths) - 1))
    how = data.draw(st.sampled_from(["inflate", "negative", "cut codes"]))
    if how == "inflate":
        lengths[at] += data.draw(st.integers(1, 1 << 20))
        archive.refuse(archive.payload(lengths=lengths))
    elif how == "negative":
        lengths[at] = -data.draw(st.integers(1, 1 << 20))
        archive.refuse(archive.payload(lengths=lengths))
    else:
        cut = data.draw(st.integers(0, len(concat) - 1))
        archive.refuse(archive.payload(concat=concat[:cut]))


@seed(SEED)
@DAMAGE
@given(raw=st.binary(max_size=256))
def test_a_payload_that_is_not_an_archive(archive, raw):
    archive.refuse(raw)
