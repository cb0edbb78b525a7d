"""The tier's central property, under the chaos-seed matrix: a query
stream against an index whose cache is far smaller than the working set
returns byte-identical results to an unbounded all-RAM twin."""

import os
from functools import partial

import numpy as np

from repro.core import Mendel, MendelConfig, QueryParams
from repro.scenario import answer_signature
from repro.seq import PROTEIN, random_set
from repro.seq.mutate import mutate_to_identity
from repro.tier import TierConfig

SEED = int(os.environ.get("CHAOS_SEED", "0"))


signature = partial(answer_signature, counters=True)


def test_bounded_cache_matches_unbounded_twin():
    db = random_set(count=14, length=150, alphabet=PROTEIN, rng=SEED + 11,
                    id_prefix="q")
    config = MendelConfig(group_count=2, group_size=2, sample_size=128,
                          seed=SEED)
    control = Mendel.build(db, config)
    subject = Mendel.build(db, config)

    queries = [
        mutate_to_identity(db.records[i % len(db)], 0.85, rng=SEED + 50 + i,
                           seq_id=f"probe-{i}")
        for i in range(6)
    ]
    params = QueryParams(k=6, n=6, i=0.7)
    expected = [signature(control.query(q, params)) for q in queries]

    raw = sum(
        int(np.asarray(n.tree.points).nbytes)
        for n in subject.index.topology.nodes
    )
    # Cache well below the working set: small pages, ~2% of the corpus.
    cache = subject.spill(
        cache_bytes=max(64, raw // 50),
        config=TierConfig(page_rows=8, alphabet_size=db.alphabet.size),
    )
    before = cache.stats()
    got = [signature(subject.query(q, params)) for q in queries]
    assert got == expected
    after = cache.stats()
    # The constraint was real: the stream missed and evicted throughout.
    assert after["misses"] > before["misses"]
    assert after["evictions"] > before["evictions"]

    # A second pass over the (thrashed) cache is still byte-identical.
    again = [signature(subject.query(q, params)) for q in queries]
    assert again == expected
