"""Tests for repro.seq.fasta."""

import io

import pytest

from repro.seq.fasta import format_fasta, parse_fasta_text, read_fasta, write_fasta
from repro.seq.records import SequenceRecord


SAMPLE = """>seq1 first sequence
ACGTACGT
ACGT
>seq2
GGGG

>seq3 with description here
TTTT
"""


class TestParse:
    def test_basic(self):
        s = parse_fasta_text(SAMPLE, "dna")
        assert len(s) == 3
        assert s["seq1"].text == "ACGTACGTACGT"
        assert s["seq1"].description == "first sequence"
        assert s["seq2"].text == "GGGG"
        assert s["seq2"].description == ""
        assert s["seq3"].description == "with description here"

    def test_wrapped_lines_joined(self):
        s = parse_fasta_text(">x\nAC\nGT\nAC\n", "dna")
        assert s["x"].text == "ACGTAC"

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            parse_fasta_text(">\nACGT\n", "dna")

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError, match="before any FASTA header"):
            parse_fasta_text("ACGT\n>x\nACGT\n", "dna")

    def test_invalid_residue_propagates(self):
        with pytest.raises(ValueError, match="invalid dna letter"):
            parse_fasta_text(">x\nACGU\n", "dna")

    def test_invalid_residue_names_the_record(self, tmp_path):
        """The position counts residues of the record, across its wrapped
        lines; the error names the record, not a line of the file."""
        text = ">ok\nMKV\n>second with a description\nMKVLA\nJW\n"
        want = "^second: invalid protein letter 'J' at position 5$"
        with pytest.raises(ValueError, match=want):
            parse_fasta_text(text, "protein")
        path = tmp_path / "bad.fasta"
        path.write_text(text)
        with pytest.raises(ValueError, match=want):
            read_fasta(path, "protein")

    def test_empty_record_names_the_record(self):
        with pytest.raises(ValueError, match="^a: empty record$"):
            parse_fasta_text(">a\n>b\nMKV\n", "protein")
        with pytest.raises(ValueError, match="^last: empty record$"):
            parse_fasta_text(">first\nMKV\n\n>last\n\n", "protein")

    def test_empty_input(self):
        assert len(parse_fasta_text("", "dna")) == 0

    def test_protein(self):
        s = parse_fasta_text(">p\nMKVLAW\n", "protein")
        assert s["p"].text == "MKVLAW"

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "db.fasta"
        path.write_text(SAMPLE)
        s = read_fasta(path, "dna")
        assert len(s) == 3
        s2 = read_fasta(str(path), "dna")
        assert len(s2) == 3


class TestWrite:
    def test_roundtrip(self):
        original = parse_fasta_text(SAMPLE, "dna")
        text = format_fasta(original.records)
        back = parse_fasta_text(text, "dna")
        assert [r.seq_id for r in back] == [r.seq_id for r in original]
        assert [r.text for r in back] == [r.text for r in original]
        assert back["seq1"].description == "first sequence"

    def test_wrapping(self):
        rec = SequenceRecord.from_text("x", "A" * 100, "dna")
        text = format_fasta([rec], width=30)
        body_lines = [l for l in text.splitlines() if not l.startswith(">")]
        assert all(len(l) <= 30 for l in body_lines)
        assert "".join(body_lines) == "A" * 100

    def test_invalid_width(self):
        rec = SequenceRecord.from_text("x", "ACGT", "dna")
        with pytest.raises(ValueError, match="width"):
            format_fasta([rec], width=0)

    def test_write_to_path(self, tmp_path):
        rec = SequenceRecord.from_text("x", "ACGT", "dna")
        path = tmp_path / "out.fasta"
        write_fasta([rec], path)
        assert read_fasta(path, "dna")["x"].text == "ACGT"

    def test_write_to_handle(self):
        rec = SequenceRecord.from_text("x", "ACGT", "dna")
        buf = io.StringIO()
        write_fasta([rec], buf)
        assert buf.getvalue() == ">x\nACGT\n"
