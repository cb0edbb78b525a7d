"""Index persistence (paper section VII-B, future work).

"Adding the ability to save pre-indexed data for popular large datasets,
such as the non-redundant protein (nr) ..., for various cluster sizes would
save researchers a lot of time."

:func:`save_index` serialises a built :class:`~repro.core.index.MendelIndex`
(reference sequences, deployment config, and each block's primary node) to
a single file; :func:`load_index` builds a live deployment from it through
the same constructor as a fresh build, taking each block's group from the
archive — so it places every block exactly where a build would without
hashing any block through the vp-prefix tree.  That hashing is one batched
pass (``VPPrefixTree.hash_many``), a small share of a build; loading still
rebuilds the prefix tree from its sample and every node's vp-tree and
write-ahead log, which is where most of the indexing time goes.

Format: a self-verifying container — magic ``MENDELIX``, a format version,
and a whole-payload CRC32 — around a compressed ``numpy`` archive holding
the concatenated residue codes, per-sequence offsets/ids, the per-block
node assignment, and a JSON header with the config.  The prefix tree and
the cluster are rebuilt deterministically from the saved config, so hashes
of *future* insertions remain consistent with the saved deployment.

Durability contract (mirrors :mod:`repro.store`): writes go through a
temporary file and an atomic ``os.replace``, so a crash mid-save leaves any
previous archive intact; loads verify magic, version, and checksum before a
single byte is parsed, raising a typed :class:`PersistError` —
:class:`CorruptArchiveError` for damage, never a confusing decode error
deep inside ``numpy``.  A payload that passes the checksum but does not
decode (an array missing, a header that is not the saved JSON, lengths
that do not tile the residue codes) is damage too, and is refused before
any block is placed.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.index import MendelIndex
from repro.core.params import MendelConfig
from repro.seq.alphabet import alphabet_for
from repro.seq.records import SequenceRecord, SequenceSet

#: v2 wrapped the archive in the checksummed ``MENDELIX`` container.
FORMAT_VERSION = 2

MAGIC = b"MENDELIX"
_CONTAINER_HEAD = struct.Struct("<8sHI")  # magic, version, payload crc32


class PersistError(Exception):
    """Base class for index save/load failures."""


class CorruptArchiveError(PersistError):
    """The archive failed its integrity checks (magic, version, CRC)."""


def save_index(index: MendelIndex, path: str | Path) -> None:
    """Serialise *index* (database + config + placement) to *path*
    atomically (tmp file + ``os.replace``)."""
    records = list(index.database)
    lengths = np.array([len(r) for r in records], dtype=np.int64)
    concat = (
        np.concatenate([r.codes for r in records])
        if records
        else np.zeros(0, dtype=np.uint8)
    )
    node_numbers = {
        node.node_id: number for number, node in enumerate(index.topology.nodes)
    }
    placement = np.array(
        [node_numbers[index.node_of_block[b.block_id]]
         for b in index.store.blocks],
        dtype=np.int32,
    )
    header = {
        "version": FORMAT_VERSION,
        "alphabet": index.alphabet.name,
        "config": dataclasses.asdict(index.config),
        "seq_ids": [r.seq_id for r in records],
        "descriptions": [r.description for r in records],
        "node_ids": [n.node_id for n in index.topology.nodes],
    }
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        concat=concat,
        lengths=lengths,
        placement=placement,
    )
    payload = buffer.getvalue()
    head = _CONTAINER_HEAD.pack(MAGIC, FORMAT_VERSION, zlib.crc32(payload))
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_suffix(target.suffix + ".npz")
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(head + payload)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def load_index(path: str | Path) -> MendelIndex:
    """Reconstruct a live :class:`MendelIndex` from a saved archive.

    The archive is verified, then built by ``MendelIndex(database, config,
    placement=(node ids, primaries))``: the saved primaries stand in for
    the vp-prefix hash, so loading is dominated by the per-node batch
    inserts.

    Raises :class:`CorruptArchiveError` when the container fails its
    integrity checks or its payload does not decode, :class:`PersistError`
    for a missing file or an unsupported format version, and
    ``ValueError`` — before any block is stored — when the placement does
    not fit the database, or the saved node list is not the one the config
    rebuilds (an index saved after a node was added or removed or a group
    split or merged).
    """
    path = _with_suffix(path)
    payload = _read_verified(path)
    try:
        database, config, node_ids, primaries = _decode(payload)
    except (KeyError, TypeError, ValueError, OSError, EOFError, zlib.error,
            zipfile.BadZipFile) as exc:
        raise CorruptArchiveError(
            f"{path} passed its checksum but does not decode: {exc}"
        ) from exc
    return MendelIndex(database, config, placement=(node_ids, primaries))


def _decode(
    payload: bytes,
) -> tuple[SequenceSet, MendelConfig, list[str], list[int]]:
    """The database, config, node ids and per-block primaries a verified
    payload holds; ``KeyError``, ``TypeError`` or ``ValueError`` (or a zip
    or zlib error) where it does not decode into them."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode())
        concat, lengths, placement = (
            archive[key] for key in ("concat", "lengths", "placement")
        )
    if not isinstance(header, dict):
        raise TypeError(f"header is a JSON {type(header).__name__}")
    if header["version"] != FORMAT_VERSION:
        raise PersistError(f"unsupported index format version {header['version']}")
    alphabet = alphabet_for(_field(header, "alphabet", str))
    seq_ids, descriptions, node_ids = (
        _field(header, key, list) for key in ("seq_ids", "descriptions", "node_ids")
    )
    if not all(isinstance(text, str) for text in seq_ids + descriptions):
        raise TypeError("a sequence id or description is not a string")
    if not (concat.dtype == np.uint8 and lengths.dtype.kind == "i"
            and placement.dtype.kind == "i"
            and concat.ndim == lengths.ndim == placement.ndim == 1):
        raise ValueError("an array is not of the saved type and shape")
    if (lengths < 0).any() or int(lengths.sum()) != concat.size or not (
        len(seq_ids) == len(descriptions) == len(lengths)
    ):
        raise ValueError("sequence lengths do not tile the residue codes")
    if concat.size and int(concat.max()) >= alphabet.size:
        raise ValueError(f"a residue code is outside {alphabet.name}")

    database = SequenceSet(alphabet=alphabet)
    pieces = np.split(concat, np.cumsum(lengths)[:-1])
    for seq_id, description, codes in zip(seq_ids, descriptions, pieces):
        database.add(SequenceRecord(seq_id=seq_id, codes=codes.copy(),
                                    alphabet=alphabet, description=description))
    config = _field(header, "config", dict)
    # Archives from before intra-group placement was flat SHA-1 only name
    # it; a ring placement cannot be rebuilt.
    if config.pop("ring_placement", False) is not False:
        raise PersistError("the archive places blocks on a consistent-hash "
                           "ring, which this version cannot rebuild")
    return database, MendelConfig(**config), node_ids, placement.tolist()


def _field(header: dict, key: str, kind: type):
    """``header[key]``, which must be a *kind*."""
    value = header[key]
    if not isinstance(value, kind):
        raise TypeError(f"header {key!r} is not a {kind.__name__}")
    return value


def _read_verified(path: Path) -> bytes:
    """Read an archive and verify magic, version, and payload CRC; returns
    the wrapped ``npz`` payload bytes."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise PersistError(f"no index archive at {path}") from exc
    if len(raw) < _CONTAINER_HEAD.size:
        raise CorruptArchiveError(
            f"{path} is {len(raw)} bytes — shorter than the container header"
        )
    magic, version, payload_crc = _CONTAINER_HEAD.unpack_from(raw, 0)
    if magic != MAGIC:
        raise CorruptArchiveError(
            f"{path} is not a Mendel index archive (bad magic {magic!r}; "
            "pre-v2 archives must be rebuilt)"
        )
    if version > FORMAT_VERSION:
        raise PersistError(
            f"{path} uses container version {version}; this build reads "
            f"up to {FORMAT_VERSION}"
        )
    payload = raw[_CONTAINER_HEAD.size:]
    if zlib.crc32(payload) != payload_crc:
        raise CorruptArchiveError(
            f"{path} failed its checksum: the archive is truncated or "
            "corrupted"
        )
    return payload


def _with_suffix(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz" and not path.exists():
        candidate = path.with_suffix(path.suffix + ".npz")
        if candidate.exists():
            return candidate
    return path
