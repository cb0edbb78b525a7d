"""``repro.tier`` — the tiered disk-backed compressed block store.

Spills a node's block codes into an on-disk columnar block file (a
reference-free redundancy codec over per-page centroids) and serves a
spilled node's search as one page-ordered pass through a bounded shared
SLRU cache — all without changing a single simulated search result: tiered
and all-RAM deployments return byte-identical k-NN answers and identical
distance-evaluation counters; only service time differs.

The block file (``MTBF`` v2) holds only what its readers read: per page
its payload, codec method, row count and centroid, plus each row's tree
row, block id and CRC32 digest.  Replay keeps a row only when its digest
verifies.
"""

from repro.tier.blockfile import (
    BlockFileReader,
    PageMeta,
    PageRecord,
    TIER_FILE,
    TierFileError,
    manifest_ids,
    write_block_file,
)
from repro.tier.cache import BlockCache
from repro.tier.codec import (
    METHOD_DELTA,
    METHOD_NAMES,
    METHOD_PACKED,
    METHOD_RAW,
    METHOD_ZLIB,
    TierCodecError,
    decode_page,
    encode_page,
    page_centroid,
)
from repro.tier.store import NodeTier, TierConfig, TieredPoints

__all__ = [
    "BlockCache",
    "BlockFileReader",
    "METHOD_DELTA",
    "METHOD_NAMES",
    "METHOD_PACKED",
    "METHOD_RAW",
    "METHOD_ZLIB",
    "NodeTier",
    "PageMeta",
    "PageRecord",
    "TIER_FILE",
    "TierCodecError",
    "TierConfig",
    "TierFileError",
    "TieredPoints",
    "decode_page",
    "encode_page",
    "manifest_ids",
    "page_centroid",
    "write_block_file",
]
