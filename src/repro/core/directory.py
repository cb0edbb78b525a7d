"""Tier-1 routing by pigeonhole part keys: the system entry's directory.

A row the identity filter can pass has at most m mismatches to its window,
so it equals the window on one of the window's ``m + 1`` pigeonhole parts.
Where a node serves a window from those parts
(:func:`repro.cluster.node.parts_selective`), it returns nothing for a
window that has no part match among its rows.  Sending a window to exactly
the groups whose placed blocks match it on a part therefore loses nothing
that a broadcast to every group would find, and the vp-prefix walk's
branching tolerance has nothing left to decide.

:class:`PartDirectory` keeps, for each group and part position, the sorted
keys (:class:`~repro.vptree.search.PartLayout`, the node's own
definition of a part key) of the blocks placed on the group
(``MendelIndex.blocks_of_group``), read from the index's
:class:`~repro.core.blocks.BlockStore`.  The placement record's sets are
immutable and only ``MendelIndex._place`` replaces them, so a group's keys
are rebuilt when, and only when, its set is another object: no insert,
split, merge, expand or repair has to tell the directory anything.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.blocks import BlockStore
from repro.vptree.search import PartLayout


class PartDirectory:
    """Per group and part position, the sorted part keys of the blocks
    *placed* on the group (the index's ``blocks_of_group``, read live)."""

    def __init__(self, store: BlockStore,
                 placed: Mapping[str, frozenset[int]]) -> None:
        self._store = store
        self._placed = placed
        #: ``(group id, parts)`` -> (the placed set the keys were read
        #: from, each part's sorted keys)
        self._keys: dict[tuple[str, int], tuple[frozenset[int], list[np.ndarray]]] = {}
        self._layouts: dict[int, PartLayout] = {}

    def layout(self, parts: int) -> PartLayout:
        """The part keys of the store's blocks cut into *parts* parts."""
        if parts not in self._layouts:
            self._layouts[parts] = PartLayout(self._store.segment_length, parts)
        return self._layouts[parts]

    def _group_keys(self, group_id: str, parts: int) -> list[np.ndarray]:
        """Each part's sorted keys over the blocks placed on *group_id*
        (``np.unique`` would drop duplicates at ~18x the cost of the sort
        on D2), rebuilt only when its placed set was replaced."""
        placed = self._placed.get(group_id, frozenset())
        held = self._keys.get((group_id, parts))
        if held is None or held[0] is not placed:
            ids = np.fromiter(placed, dtype=np.intp, count=len(placed))
            codes = self._store.codes_matrix(ids)
            held = (placed, [np.sort(keys) for keys in self.layout(parts).keys(codes)])
            self._keys[(group_id, parts)] = held
        return held[1]

    def route(self, windows: np.ndarray, parts: int,
              group_ids: Sequence[str]) -> np.ndarray:
        """``(W, G)``: whether window ``w`` equals a block placed on group
        ``group_ids[g]`` on one of its *parts* parts — one ``searchsorted``
        of all the windows' keys a group and part position."""
        for stale in [key for key in self._keys if key[0] not in self._placed]:
            del self._keys[stale]
        queries = self.layout(parts).keys(windows)
        hit = np.zeros((windows.shape[0], len(group_ids)), dtype=bool)
        for column, group_id in enumerate(group_ids):
            for keys, query in zip(self._group_keys(group_id, parts), queries):
                if keys.size:
                    at = np.searchsorted(keys, query).clip(max=keys.size - 1)
                    hit[:, column] |= keys[at] == query
        return hit
