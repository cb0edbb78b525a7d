"""Reference-free redundancy codec for on-disk block pages.

Sequencing segments are heavily redundant — family members differ from each
other by point mutations, so rows of one page differ from the page's
*centroid* (per-column modal residue) in only a few positions.  The codec
exploits that without any external reference (compare the compressed
self-index of arXiv 1111.1355, which likewise derives its model from the
data itself):

``PACKED``
    residues packed 4-per-byte after subtracting the centroid modulo the
    alphabet size — only applicable to small alphabets (DNA: 4 symbols fit
    2 bits) whose codes all lie below the alphabet size — then zlib over
    the packed stream (runs of zero deltas collapse);
``DELTA``
    per-column delta versus the centroid modulo 256, then zlib — protein
    pages where rows cluster around the centroid compress well because the
    delta stream is mostly zero bytes;
``ZLIB``
    plain zlib over the raw rows — the guaranteed fallback for pages with
    no exploitable structure;
``RAW``
    the rows verbatim — chosen when compression would *expand* the page
    (tiny pages, already-random data).

Encoding tries every applicable method and keeps the smallest payload
(ties broken by method order), so the choice is deterministic and the
format records the winner per page.  Every method is lossless: decode is
the exact inverse and reproduces the original ``uint8`` rows bit-for-bit,
which the per-row CRC32 digests in the block file verify independently.
"""

from __future__ import annotations

import zlib

import numpy as np

METHOD_RAW = 0
METHOD_ZLIB = 1
METHOD_DELTA = 2
METHOD_PACKED = 3

METHOD_NAMES = {
    METHOD_RAW: "raw",
    METHOD_ZLIB: "zlib",
    METHOD_DELTA: "delta+zlib",
    METHOD_PACKED: "2bit+zlib",
}

#: zlib level: 6 balances ratio against the spill/unspill wall cost.
_LEVEL = 6


class TierCodecError(Exception):
    """A page payload could not be decoded (corruption or a bad method)."""


def _pack_2bit(values: np.ndarray) -> bytes:
    """Pack a flat array of 2-bit values (0..3) four per byte."""
    flat = values.ravel()
    pad = (-flat.size) % 4
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    quads = flat.reshape(-1, 4)
    packed = (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)
    return packed.tobytes()


def _unpack_2bit(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`_pack_2bit`; returns *count* values."""
    packed = np.frombuffer(data, dtype=np.uint8)
    quads = np.empty((packed.size, 4), dtype=np.uint8)
    quads[:, 0] = packed & 3
    quads[:, 1] = (packed >> 2) & 3
    quads[:, 2] = (packed >> 4) & 3
    quads[:, 3] = (packed >> 6) & 3
    flat = quads.ravel()
    if flat.size < count:
        raise TierCodecError(
            f"packed stream holds {flat.size} residues, need {count}"
        )
    return flat[:count]


def page_centroid(rows: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Per-column modal residue of a page, the reference the delta methods
    encode against (ties break toward the smaller code, which keeps the
    centroid deterministic)."""
    width = rows.shape[1]
    centroid = np.empty(width, dtype=np.uint8)
    size = max(int(alphabet_size), int(rows.max(initial=0)) + 1)
    for col in range(width):
        centroid[col] = np.bincount(rows[:, col], minlength=size).argmax()
    return centroid


def encode_page(
    rows: np.ndarray, centroid: np.ndarray, alphabet_size: int
) -> tuple[int, bytes]:
    """Encode one page of equal-length code rows; returns
    ``(method, payload)``.

    Tries every applicable method and keeps the smallest payload; the
    selection is deterministic (method order breaks ties), so re-encoding
    identical rows always yields identical bytes.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    centroid = np.ascontiguousarray(centroid, dtype=np.uint8)
    raw = rows.tobytes()
    candidates: list[tuple[int, bytes]] = [(METHOD_RAW, raw)]
    candidates.append((METHOD_ZLIB, zlib.compress(raw, _LEVEL)))
    delta = ((rows.astype(np.int16) - centroid.astype(np.int16)) % 256).astype(
        np.uint8
    )
    candidates.append((METHOD_DELTA, zlib.compress(delta.tobytes(), _LEVEL)))
    if (
        2 <= alphabet_size <= 4
        and (rows < alphabet_size).all()
        and (centroid < alphabet_size).all()
    ):
        residue_delta = (
            (rows.astype(np.int16) - centroid.astype(np.int16)) % alphabet_size
        ).astype(np.uint8)
        candidates.append(
            (METHOD_PACKED, zlib.compress(_pack_2bit(residue_delta), _LEVEL))
        )
    return min(candidates, key=lambda pair: (len(pair[1]), pair[0]))


def decode_page(
    method: int,
    payload: bytes,
    n_rows: int,
    width: int,
    centroid: np.ndarray,
    alphabet_size: int,
) -> np.ndarray:
    """Inverse of :func:`encode_page`; returns the ``(n_rows, width)``
    ``uint8`` matrix.  Raises :class:`TierCodecError` on any damage,
    including framing the payload cannot be decoded under: a centroid that
    is not ``width`` codes long, or an alphabet size outside 1..256."""
    expected = n_rows * width
    centroid = np.asarray(centroid)
    if centroid.shape != (width,):
        raise TierCodecError(
            f"centroid of shape {centroid.shape} for a page {width} wide"
        )
    if not 1 <= alphabet_size <= 256:
        raise TierCodecError(f"alphabet size {alphabet_size} outside 1..256")
    try:
        if method == METHOD_RAW:
            flat = np.frombuffer(payload, dtype=np.uint8)
        elif method == METHOD_ZLIB:
            flat = np.frombuffer(zlib.decompress(payload), dtype=np.uint8)
        elif method == METHOD_DELTA:
            delta = np.frombuffer(zlib.decompress(payload), dtype=np.uint8)
            if delta.size != expected:
                raise TierCodecError(
                    f"delta stream holds {delta.size} bytes, need {expected}"
                )
            centroid = np.asarray(centroid, dtype=np.uint8)
            flat = (
                (delta.reshape(n_rows, width).astype(np.int16) + centroid) % 256
            ).astype(np.uint8).ravel()
        elif method == METHOD_PACKED:
            stream = zlib.decompress(payload)
            delta = _unpack_2bit(stream, expected)
            centroid = np.asarray(centroid, dtype=np.uint8)
            flat = (
                (delta.reshape(n_rows, width).astype(np.int16) + centroid)
                % alphabet_size
            ).astype(np.uint8).ravel()
        else:
            raise TierCodecError(f"unknown page codec method {method}")
    except zlib.error as exc:
        raise TierCodecError(f"page payload failed to decompress: {exc}") from exc
    if flat.size != expected:
        raise TierCodecError(
            f"decoded {flat.size} bytes for a {n_rows}x{width} page"
        )
    return np.ascontiguousarray(flat.reshape(n_rows, width))
