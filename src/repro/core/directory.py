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
keys (:class:`PartLayout`) of the blocks placed on the group
(``MendelIndex.blocks_of_group``), read from the index's
:class:`~repro.core.blocks.BlockStore`, and beside them each key's block
id.  A lookup therefore names the candidate blocks themselves, not only
their groups: a node scores exactly those it holds.  The placement
record's sets are immutable and only ``MendelIndex._place`` replaces them,
so a group's keys are rebuilt when, and only when, its set is another
object: no insert, split, merge, expand or repair has to tell the
directory anything.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.blocks import BlockStore


class PartLayout:
    """The ``parts`` pigeonhole parts of *width*-residue codes
    (``np.array_split(range(width), parts)``) as part keys, the one
    definition of a part key.  A row's key is one ``take`` of its codes
    laying every part out as whole 8-byte words, a part padded with copies
    of its first position, so a part's words are equal iff the part is."""

    def __init__(self, width: int, parts: int) -> None:
        # The parts of ``np.array_split``: the first ``extra`` one longer.
        size, extra = divmod(width, parts)
        ends = [part * size + min(part, extra) for part in range(parts + 1)]
        layout: list[int] = []
        #: each part's ``(first, stop)`` words
        self.words = []
        for start, stop in zip(ends, ends[1:]):
            first, count = len(layout) // 8, -(-(stop - start) // 8)
            self.words.append((first, first + count))
            layout += [*range(start, stop)] + [start] * (8 * count - stop + start)
        #: the code positions of the words
        self.layout = np.array(layout, dtype=np.intp)

    def keys(self, codes: np.ndarray) -> list[np.ndarray]:
        """Each part's keys of ``(n, L)`` codes, one sortable scalar a row:
        the part's word, or its words as one byte string."""
        packed = codes.take(self.layout, axis=1).view(np.uint64)
        return [
            packed[:, first] if stop == first + 1
            else np.ascontiguousarray(packed[:, first:stop]).view(
                np.dtype((np.void, 8 * (stop - first)))).ravel()
            for first, stop in self.words
        ]


class PartDirectory:
    """Per group and part position, the sorted part keys of the blocks
    *placed* on the group (the index's ``blocks_of_group``, read live) and
    each key's block id."""

    def __init__(self, store: BlockStore,
                 placed: Mapping[str, frozenset[int]]) -> None:
        self._store = store
        self._placed = placed
        #: ``(group id, parts)`` -> (the placed set the keys were read
        #: from, each part's sorted keys and their block ids)
        self._keys: dict[tuple[str, int],
                         tuple[frozenset[int], list[tuple[np.ndarray, np.ndarray]]]] = {}
        self._layouts: dict[int, PartLayout] = {}

    def layout(self, parts: int) -> PartLayout:
        """The part keys of the store's blocks cut into *parts* parts."""
        if parts not in self._layouts:
            self._layouts[parts] = PartLayout(self._store.segment_length, parts)
        return self._layouts[parts]

    def _group_keys(self, group_id: str,
                    parts: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each part's sorted keys over the blocks placed on *group_id*,
        duplicates kept, and the ``int32`` block id of each key (one
        ``argsort`` a part), rebuilt only when its placed set was
        replaced."""
        placed = self._placed.get(group_id, frozenset())
        held = self._keys.get((group_id, parts))
        if held is None or held[0] is not placed:
            ids = np.fromiter(placed, dtype=np.int32, count=len(placed))
            codes = self._store.codes_matrix(ids)
            columns = []
            for keys in self.layout(parts).keys(codes):
                order = np.argsort(keys)
                columns.append((keys[order], ids[order]))
            held = self._keys[(group_id, parts)] = (placed, columns)
        return held[1]

    def route(self, windows: np.ndarray, parts: int, group_ids: Sequence[str]
              ) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each of *group_ids*, ``(lanes, ids)``: the blocks placed on
        the group equal to window ``lanes[j]`` of the ``(W, w)`` stack on
        one of its *parts* parts, each ``(window, block)`` once, ascending
        by window and then id — every key run equal to a window's key,
        found with one ``searchsorted`` left and right a group and part
        position."""
        for stale in [key for key in self._keys if key[0] not in self._placed]:
            del self._keys[stale]
        queries = self.layout(parts).keys(windows)
        every = np.arange(windows.shape[0], dtype=np.int64)
        named = []
        for group_id in group_ids:
            pairs = [every[:0]]
            for (keys, owners), query in zip(self._group_keys(group_id, parts),
                                             queries):
                low = np.searchsorted(keys, query, side="left")
                runs = np.searchsorted(keys, query, side="right") - low
                # Position j of a window's run is low + j.
                at = np.arange(runs.sum()) + np.repeat(low + runs - np.cumsum(runs), runs)
                pairs.append(np.repeat(every, runs) << 32 | owners[at])
            # (window, block) as one sorted int64; a block equal on two
            # parts is named once.
            pairs = np.unique(np.concatenate(pairs))
            named.append((pairs >> 32, (pairs & 0xFFFFFFFF).astype(np.int32)))
        return named
