"""Block Filtering (paper Algorithm 1) — the first efficiency contribution.

Every block has a different importance for each entity it contains: a huge
block is superfluous for most of its members but may be the only block where
a particular pair of duplicates co-occurs. Block Filtering removes each
entity from the *least important* portion of its blocks. Importance is the
block's cardinality — the fewer comparisons a block entails, the more
important it is — so blocks are processed from smallest to largest and each
entity is retained only in the first ``r`` fraction of its blocks.

The filtering ratio ``r`` is a *local* threshold: entity ``i`` keeps
``max(1, round(r · |B_i|))`` block assignments. A global threshold performs
poorly because the number of blocks per entity varies wildly (paper,
Section 4.1); the floor of one assignment guarantees no entity disappears
from the collection outright.

Used in two ways (paper Figure 7): as pre-processing that shrinks the
blocking graph before graph-based Meta-blocking, or — with a much smaller
``r`` — combined with Comparison Propagation as *Graph-free Meta-blocking*
(see :mod:`repro.core.graph_free`).
"""

from __future__ import annotations

import numpy as np

from repro.datamodel.blocks import BlockCollection, csr_offsets, run_positions


class BlockFiltering:
    """Retain each entity only in its ``r`` most important blocks.

    Parameters
    ----------
    ratio:
        The filtering ratio ``r`` in (0, 1]. ``r=0.8`` (the paper's tuned
        value) keeps every entity in the smallest 80% of its blocks.
    """

    def __init__(self, ratio: float = 0.8) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Algorithm 1: sort by importance, cap assignments per entity.

        Returns a new collection in processing order (ascending block
        cardinality); blocks left with fewer than one comparison are
        dropped.

        Algorithm 1 walks the blocks in that order, side 1 before side 2,
        and keeps an entity while its counter is below ``maxBlocks[i]``. A
        kept assignment is exactly one with fewer than ``maxBlocks[i]``
        earlier assignments of the same entity in the walk, so the walk is
        a few array passes: rank every assignment within its entity, then
        keep the ranks under the entity's limit.
        """
        ordered = blocks.sorted_by_cardinality()
        sides = ordered.sides
        # The walk position of every member: block b's runs start at the
        # sum of its offsets on both sides.
        starts = np.sum([indptr[:-1] for indptr, _ in sides], axis=0)
        slots = []
        for indptr, _ in sides:
            sizes = np.diff(indptr)
            slots.append(run_positions(starts, sizes))
            starts = starts + sizes
        walk = np.empty(sum(slot.size for slot in slots), dtype=np.int64)
        for (_, members), side_slots in zip(sides, slots):
            walk[side_slots] = members

        # maxBlocks[i] = max(1, round(r · |B_i|)), rounding half up.
        counts = np.bincount(walk, minlength=ordered.num_entities)
        limits = np.maximum(1, (self.ratio * counts + 0.5).astype(np.int64))
        # Walk positions grouped by entity, in walk order within each
        # group: one sort of unique (entity, position) keys.
        by_entity = np.sort(walk * walk.size + np.arange(walk.size)) % walk.size
        ranks = np.empty(walk.size, dtype=np.int64)
        ranks[by_entity] = np.arange(walk.size) - np.repeat(
            csr_offsets(counts)[:-1], counts
        )
        kept = ranks < limits[walk]

        arrays = []
        for (indptr, members), side_slots in zip(sides, slots):
            side_kept = kept[side_slots]
            arrays += [csr_offsets(side_kept)[indptr], members[side_kept]]
        return BlockCollection.from_csr(
            ordered.keys, ordered.num_entities, *arrays
        ).only_valid()
