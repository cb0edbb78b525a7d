"""Index persistence (paper section VII-B, future work).

"Adding the ability to save pre-indexed data for popular large datasets,
such as the non-redundant protein (nr) ..., for various cluster sizes would
save researchers a lot of time."

:func:`save_index` serialises a built :class:`~repro.core.index.MendelIndex`
(reference sequences, deployment config, and the complete block placement)
to a single file; :func:`load_index` reconstructs a live deployment from it
*without* re-running the vp-prefix hashing of every block — the dominant
indexing cost — by replaying the saved placement directly into per-node
batch inserts.

Format: a self-verifying container — magic ``MENDELIX``, a format version,
and a whole-payload CRC32 — around a compressed ``numpy`` archive holding
the concatenated residue codes, per-sequence offsets/ids, the per-block
node assignment, and a JSON header with the config.  The prefix tree is
rebuilt deterministically from the saved config seed, so hashes of *future*
insertions remain consistent with the saved deployment.

Durability contract (mirrors :mod:`repro.store`): writes go through a
temporary file and an atomic ``os.replace``, so a crash mid-save leaves any
previous archive intact; loads verify magic, version, and checksum before a
single byte is parsed, raising a typed :class:`PersistError` —
:class:`CorruptArchiveError` for damage, never a confusing decode error
deep inside ``numpy``.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
import struct
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

    The cluster shell and prefix tree are rebuilt deterministically from the
    saved config; block placement is replayed from the archive instead of
    re-hashing, so loading is dominated by the per-node batch inserts.

    Raises :class:`CorruptArchiveError` when the container fails its
    integrity checks and :class:`PersistError` for a missing file or an
    unsupported format version.
    """
    payload = _read_verified(_with_suffix(path))
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode())
        if header["version"] != FORMAT_VERSION:
            raise PersistError(
                f"unsupported index format version {header['version']}"
            )
        concat = archive["concat"]
        lengths = archive["lengths"]
        placement = archive["placement"]

    alphabet = alphabet_for(header["alphabet"])
    database = SequenceSet(alphabet=alphabet)
    offset = 0
    for seq_id, description, length in zip(
        header["seq_ids"], header["descriptions"], lengths
    ):
        database.add(
            SequenceRecord(
                seq_id=seq_id,
                codes=concat[offset : offset + int(length)].copy(),
                alphabet=alphabet,
                description=description,
            )
        )
        offset += int(length)

    config = MendelConfig(**header["config"])
    index = MendelIndex.__new__(MendelIndex)
    _rebuild_from_placement(index, database, config, header, placement)
    return index


def _rebuild_from_placement(index, database, config, header, placement) -> None:
    """Initialise *index* like ``MendelIndex.__init__`` but replay the saved
    placement instead of re-hashing every block."""
    from repro.cluster.topology import ClusterSpec, ClusterTopology
    from repro.core.blocks import BlockStore
    from repro.core.index import IndexStats
    from repro.seq.distance import default_distance
    from repro.util.rng import as_generator
    from repro.vptree.prefix import VPPrefixTree

    index.database = database
    index.config = config
    index.alphabet = database.alphabet
    index.stats = IndexStats()
    gen = as_generator(config.seed)

    index.store = BlockStore(database, config.segment_length)
    index.stats.block_count = len(index.store)
    if len(placement) != len(index.store):
        raise ValueError(
            f"placement length {len(placement)} does not match block count "
            f"{len(index.store)}; archive does not belong to this database"
        )

    sample_size = min(config.sample_size, len(index.store))
    sample_ids = gen.choice(len(index.store), size=sample_size, replace=False)
    sample = index.store.codes_matrix(sample_ids)
    index._metric_factory = functools.partial(default_distance, index.alphabet)
    index.prefix_tree = VPPrefixTree(
        sample,
        index._metric_factory(),
        depth_threshold=config.prefix_depth,
        bucket_capacity=config.prefix_bucket_capacity,
        rng=int(gen.integers(0, 2**31 - 1)),
    )
    spec = ClusterSpec(
        group_count=config.group_count,
        group_size=config.group_size,
        heterogeneous=config.heterogeneous,
        bucket_capacity=config.bucket_capacity,
    )
    index.topology = ClusterTopology(
        spec=spec,
        prefix_tree=index.prefix_tree,
        sample=sample,
        metric_factory=index._metric_factory,
        segment_length=config.segment_length,
        rng=int(gen.integers(0, 2**31 - 1)),
    )

    node_ids = header["node_ids"]
    if node_ids != [n.node_id for n in index.topology.nodes]:
        raise ValueError("saved cluster shape does not match rebuilt topology")

    index.node_of_block = {}
    per_node: dict[str, list[int]] = {node_id: [] for node_id in node_ids}
    for block_id, node_number in enumerate(placement):
        primary_id = node_ids[int(node_number)]
        # Re-derive the replica set from the deterministic successor rule —
        # only the (cheap) intra-group SHA-1 runs; the saved placement spares
        # the expensive vp-prefix hashing.
        group = index.topology.group(primary_id.split(".")[0])
        replicas = group.place_replicas(
            index.store.block_key(block_id), config.replication
        )
        for node in replicas:
            per_node[node.node_id].append(block_id)
        index.node_of_block[block_id] = primary_id

    nodes_by_id = {n.node_id: n for n in index.topology.nodes}
    for node_id, block_ids in per_node.items():
        if block_ids:
            nodes_by_id[node_id].store_blocks(
                index.store.codes_matrix(block_ids), block_ids
            )
        index.stats.per_node_blocks[node_id] = len(block_ids)


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
