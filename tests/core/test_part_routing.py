"""Tier-1 routing by part keys against brute force.

Where nodes serve a window from its m + 1 pigeonhole part keys
(``repro.cluster.node.parts_selective``), the system entry sends the window
to exactly the groups whose placed blocks (``MendelIndex.blocks_of_group``)
equal it on one of those parts.  A block the identity filter can pass (at
most m mismatches) equals the window on a part, so those groups include
every group holding a passer.

The property runs on deployments drawn from ``CHAOS_SEED`` and is checked
after each topology change that replaces a group's placed set: an insert,
an unsettled and a settled split, a merge and an expand.  The pinned
regression is a window the vp-prefix walk sent away from the one group
holding its passer.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.core.anchors import max_mismatches
from repro.core.params import QueryParams
from repro.scenario import build_deployment, planted_probes
from repro.seq import PROTEIN, random_set

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("CHAOS_SEED", "0"))
#: reads at 80 % identity: m = 1 at w = 8, parts of 4 residues (16.3 bits)
PARAMS = QueryParams(k=4, n=6, i=0.8)


def brute_force(index, window: np.ndarray,
                params: QueryParams = PARAMS) -> tuple[list[str], set[str]]:
    """The groups, in topology order, whose placed blocks equal *window*
    on one of its parts, and the groups placing a passer."""
    width = index.segment_length
    mismatches = max_mismatches(width, params.i)
    parts = np.array_split(np.arange(width), mismatches + 1)
    matched, passers = [], set()
    for group in index.topology.groups:
        placed = sorted(index.blocks_of_group[group.group_id])
        codes = index.store.codes_matrix(placed)
        equal = codes == window
        if any(equal[:, part].all(axis=1).any() for part in parts):
            matched.append(group.group_id)
        if ((~equal).sum(axis=1) <= mismatches).any():
            passers.add(group.group_id)
    return matched, passers


def assert_routes_match(mendel, probes, params: QueryParams = PARAMS) -> None:
    index = mendel.index
    for probe in probes:
        report = mendel.query(probe, params)
        windows = mendel.engine.windows_for(probe, params)
        assert len(report.routes) == len(windows)
        for window, route in zip(windows, report.routes):
            matched, passers = brute_force(index, window.codes, params)
            assert route.path == "parts" and route.prefixes == ()
            assert list(route.groups) == matched, (probe.seq_id, window.index)
            assert passers <= set(matched)


def draw_deployment(draw: random.Random):
    group_size = draw.randint(1, 3)
    return build_deployment(
        draw.randrange(1000), (draw.randint(10, 20), draw.randint(80, 160)),
        group_count=draw.randint(2, 4), group_size=group_size,
        replication=draw.randint(1, group_size),
    )


@pytest.mark.parametrize("draw_number", range(2))
def test_routes_equal_brute_force_across_topology_changes(draw_number):
    draw = random.Random(SEED * 1000 + draw_number)
    mendel = draw_deployment(draw)
    index = mendel.index
    probes, _ = planted_probes(mendel, 3, draw.randrange(1000), spread=True)
    probes += list(random_set(count=1, length=60, alphabet=PROTEIN,
                              rng=draw.randrange(1000), id_prefix="stray"))
    assert_routes_match(mendel, probes)

    mendel.insert(random_set(count=3, length=draw.randint(60, 120),
                             alphabet=PROTEIN, rng=draw.randrange(1000),
                             id_prefix="late"))
    assert_routes_match(mendel, probes)

    busiest = max(index.topology.groups,
                  key=lambda group: len(index.blocks_of_group[group.group_id]))
    change = index.split_group(busiest.group_id, settle=False)
    assert_routes_match(mendel, probes)
    change.settle()
    assert_routes_match(mendel, probes)

    groups = index.topology.groups
    index.split_group(draw.choice(groups).group_id)
    assert_routes_match(mendel, probes)

    source, target = draw.sample(index.topology.groups, 2)
    index.merge_groups(source.group_id, target.group_id)
    assert_routes_match(mendel, probes)

    index.expand_group(draw.choice(index.topology.groups).group_id)
    assert_routes_match(mendel, probes)


def test_parts_longer_than_a_word():
    """w 24 at 95 % identity: m = 1, two parts of 12 residues, each keyed
    as two words."""
    params = QueryParams(k=6, n=6, i=0.95)
    mendel = build_deployment(SEED, (12, 120), group_count=3, group_size=1,
                              replication=1, segment_length=24)
    assert max_mismatches(24, params.i) == 1
    probes, _ = planted_probes(mendel, 3, SEED + 7, spread=True)
    assert_routes_match(mendel, probes, params)


def test_a_window_the_walk_missed_reaches_its_passer():
    """Seed-3 deployment, probe 9, window 22 (query offset 88): the one
    group placing a passer is ``g01``; the vp-prefix walk sent the window
    to ``g02`` alone."""
    mendel = build_deployment(3, (24, 150), group_count=4, group_size=1,
                              replication=1)
    probe = planted_probes(mendel, 12, 305)[0][9]
    window = mendel.engine.windows_for(probe, PARAMS)[22]
    assert window.query_start == 88
    _, passers = brute_force(mendel.index, window.codes)
    assert passers == {"g01"}
    route = mendel.query(probe, PARAMS).routes[22]
    assert "g01" in route.groups
