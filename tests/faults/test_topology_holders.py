"""A topology change streams a block only from a node that holds it.

Expand, remove, split and merge re-place the blocks placed on a group.
Their codes are read from the index's block store, a copy no node holds,
so a change that stored every placed block would bring back blocks that no
node holds any more.  After the unheld-blocks recipe (``g00.n0`` crashes
at replication 1 with a rotted snapshot and rejoins without its 330
blocks), each change must leave exactly those blocks placed, held by no
node and reported lost by repair.
"""

from __future__ import annotations

import pytest

from repro.faults.repair import ReReplicator
from tests.faults.test_unheld_blocks import crash_with_rot, deployment

CHANGES = {
    "expand": lambda index: index.expand_group("g00"),
    "remove": lambda index: index.remove_node("g00.n1"),
    "split": lambda index: index.split_group("g00"),
    "merge": lambda index: index.merge_groups("g00", "g01"),
}


def unheld(index) -> set[int]:
    """Placed blocks no node of their group holds — what every group's
    repair plan reports lost."""
    lost = set()
    for group in index.topology.groups:
        held = set().union(*(node.block_ids for node in group.nodes))
        missing = index.blocks_of_group[group.group_id] - held
        assert ReReplicator(index).plan(group).lost == sorted(missing)
        lost |= missing
    return lost


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_topology_change_does_not_restore_lost_blocks(change):
    mendel = deployment()
    index = mendel.index
    index.flush_durable()
    held = crash_with_rot(mendel, "g00.n0", "snapshot", 40, 2)
    assert unheld(index) == held and len(held) == 330
    placed = set().union(*index.blocks_of_group.values())

    CHANGES[change](index)

    assert set().union(*index.blocks_of_group.values()) == placed
    assert unheld(index) == held
