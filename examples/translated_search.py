"""Translated (BLASTX-style) search: DNA reads against a protein database.

The paper's research challenge 3: "The queries we consider need to support
both DNA and protein sequence data."  When the reference is a protein
database (like `nr`) and the query is DNA (sequencer output), the query
must be translated in all six reading frames and each frame searched.

This example synthesises a protein reference, back-translates one protein
into a DNA "gene", flips it onto the reverse strand, queries with
``Mendel.query_translated``, prints the traced distributed dataflow for one
frame, and lists the local alignments the search returned.
"""

from repro import Mendel, MendelConfig, QueryParams
from repro.obs.trace import TraceContext
from repro.seq import (
    DNA,
    PROTEIN,
    SequenceRecord,
    SequenceSet,
    STANDARD_CODE,
    reverse_complement,
)
from repro.seq.generate import random_protein
from repro.util.rng import as_generator


def back_translate(protein_text: str, rng) -> str:
    """Choose a random synonymous codon for every residue."""
    by_amino: dict[str, list[str]] = {}
    for codon, amino in STANDARD_CODE.items():
        by_amino.setdefault(amino, []).append(codon)
    return "".join(
        by_amino[residue][int(rng.integers(0, len(by_amino[residue])))]
        for residue in protein_text
    )


def main() -> None:
    gen = as_generator(77)
    database = SequenceSet(alphabet=PROTEIN)
    for i in range(15):
        database.add(random_protein(130, rng=gen, seq_id=f"prot-{i:03d}"))
    mendel = Mendel.build(
        database, MendelConfig(group_count=3, group_size=2, seed=19)
    )
    print(f"protein reference: {len(database)} sequences; "
          f"{mendel.block_count} blocks on {mendel.node_count} nodes\n")

    # A DNA gene encoding protein #6, on the reverse strand.
    target = database.records[6]
    gene = DNA.encode(back_translate(target.text, gen))
    query = SequenceRecord(
        seq_id="contig-0001",
        codes=reverse_complement(gene),
        alphabet=DNA,
        description="assembled contig (reverse strand)",
    )
    print(f"DNA query: {len(query)} bases (encodes {target.seq_id} "
          f"on the reverse strand)\n")

    params = QueryParams(k=4, n=6, i=0.8)
    report = mendel.query_translated(query, params)
    best = report.best()
    assert best is not None and best.subject_id == target.seq_id
    frame = best.query_id.split("|")[1]
    print(f"best hit: {best.subject_id} via reading frame {frame}")
    print(f"  {best.brief()}\n")

    # Show the distributed dataflow for the winning frame.
    from repro.seq.translate import six_frame_translations

    winning = next(
        f for f in six_frame_translations(query) if f.seq_id == best.query_id
    )
    traced = mendel.query(winning, params, trace_ctx=TraceContext())
    print("distributed dataflow of the winning frame:")
    print(traced.root_span.format_tree())

    # The local alignments the search returned, across all six frames.
    print(f"\n{len(report.alignments)} local alignments:")
    for alignment in report.alignments[:5]:
        print(f"  {alignment.brief()}")
    print("\nOK")


if __name__ == "__main__":
    main()
