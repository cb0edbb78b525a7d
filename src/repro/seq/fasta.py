"""Minimal, strict FASTA reader/writer.

Handles the format features genomic reference sets actually use: ``>``
headers with id + optional description, wrapped sequence lines, mixed case,
and blank lines between records.  Parsing is line-oriented and accumulates
into a single encode call per record so large references stay cheap.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.seq.alphabet import Alphabet, alphabet_for
from repro.seq.records import SequenceRecord, SequenceSet


def _iter_fasta_chunks(handle: TextIO) -> Iterator[tuple[str, str]]:
    """Yield ``(header, sequence_text)`` per record from *handle*."""
    header: str | None = None
    parts: list[str] = []
    for line_no, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield header, "".join(parts)
            header = line[1:].strip()
            if not header:
                raise ValueError(f"empty FASTA header at line {line_no}")
            parts = []
        else:
            if header is None:
                raise ValueError(
                    f"sequence data before any FASTA header at line {line_no}"
                )
            parts.append(line)
    if header is not None:
        yield header, "".join(parts)


def read_fasta(
    source: str | Path | TextIO,
    alphabet: Alphabet | str,
) -> SequenceSet:
    """Parse FASTA from a path, string-path, or open handle into a
    :class:`~repro.seq.records.SequenceSet` under *alphabet*.  A residue
    outside *alphabet* or a header with no sequence under it raises
    ``ValueError`` naming the record:
    ``"<seq_id>: invalid protein letter 'J' at position 5"``,
    ``"<seq_id>: empty record"``."""
    if isinstance(alphabet, str):
        alphabet = alphabet_for(alphabet)
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            return read_fasta(handle, alphabet)

    result = SequenceSet(alphabet=alphabet)
    for header, text in _iter_fasta_chunks(source):
        seq_id, _, description = header.partition(" ")
        if not text:
            raise ValueError(f"{seq_id}: empty record")
        try:
            record = SequenceRecord.from_text(
                seq_id=seq_id,
                text=text,
                alphabet=alphabet,
                description=description,
            )
        except ValueError as exc:
            raise ValueError(f"{seq_id}: {exc}") from None
        result.add(record)
    return result


def parse_fasta_text(text: str, alphabet: Alphabet | str) -> SequenceSet:
    """Parse FASTA from an in-memory string."""
    return read_fasta(io.StringIO(text), alphabet)


def write_fasta(
    records: Iterable[SequenceRecord],
    target: str | Path | TextIO,
    width: int = 70,
) -> None:
    """Write *records* as FASTA, wrapping sequence lines at *width* columns."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as handle:
            write_fasta(records, handle, width)
        return
    for record in records:
        head = record.seq_id
        if record.description:
            head = f"{head} {record.description}"
        target.write(f">{head}\n")
        text = record.text
        for start in range(0, len(text), width):
            target.write(text[start : start + width] + "\n")


def format_fasta(records: Iterable[SequenceRecord], width: int = 70) -> str:
    """Render *records* as a FASTA string."""
    buf = io.StringIO()
    write_fasta(records, buf, width)
    return buf.getvalue()
