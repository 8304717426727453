"""The Entity Index: inverted index from entity ids to block ids.

The blocking graph is never materialised at scale (paper, Section 4.2);
instead, every method works through this index. For an entity ``i``,
``block_list(i)`` (the paper's ``B_i``) is the ascending list of positions of
the blocks that contain ``i`` — positions within the block collection's
*processing order*, so the Least Common Block Index condition (LeCoBI) is a
simple comparison of the smallest shared id.

Storage is compressed sparse row (CSR): two int64 numpy arrays per
direction —

* entity → blocks: ``indptr`` / ``block_indices``; ``block_list(i)`` is the
  slice ``block_indices[indptr[i]:indptr[i+1]]`` (ascending);
* block → members: ``member_indptr1`` / ``members1`` (and ``member_indptr2``
  / ``members2`` for the second side of bilateral collections; for
  unilateral collections the side-2 arrays alias side 1).

Per-entity block counts (``block_counts``) and per-block inverse
cardinalities (``inverse_cardinality_array``) are precomputed, so the
vectorized weighting backend and the parallel executor slice plain arrays
without touching Python objects. The list-returning accessors
(`block_list`, `placed_entities`, `inverse_cardinalities`) are thin views
over the CSR kept for the scalar backends and existing callers.
"""

from __future__ import annotations

import numpy as np

from repro.datamodel.blocks import BlockCollection, multi_range_gather


def _csr_cooccurrence_lengths(
    index, excluded: "np.ndarray | None" = None
) -> np.ndarray:
    """``cooccurrence_arrays`` length of every entity, from the CSR arrays.

    One block-size gather per member side, reduced per entity run, so the
    peak working set is a single array over the block assignments. A block
    flagged in the boolean ``excluded`` mask adds nothing.
    """
    indptr = index.indptr
    placed = indptr[1:] > indptr[:-1]
    starts = indptr[:-1][placed]

    def gathered(sizes: np.ndarray) -> np.ndarray:
        if excluded is not None:
            sizes = np.where(excluded, 0, sizes)
        totals = np.zeros(placed.size, dtype=np.int64)
        if starts.size:
            totals[placed] = np.add.reduceat(sizes[index.block_indices], starts)
        return totals

    if index.is_bilateral:
        # Second-side entities gather side-1 members and vice versa.
        return np.where(
            np.asarray(index.second_side_mask, dtype=bool),
            gathered(np.diff(index.member_indptr1)),
            gathered(np.diff(index.member_indptr2)),
        )
    # A unilateral entity's own membership is dropped from each block.
    return gathered(np.diff(index.member_indptr1) - 1)


def _csr_cooccurrence_arrays(
    index, entity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shared implementation of ``cooccurrence_arrays`` over CSR arrays."""
    positions = index.block_slice(entity)
    if index.is_bilateral and index.second_side_mask[entity]:
        member_indptr, members = index.member_indptr1, index.members1
    else:
        member_indptr, members = index.member_indptr2, index.members2
    ids, blocks = multi_range_gather(member_indptr, members, positions)
    if not index.is_bilateral and ids.size:
        keep = ids != entity
        ids, blocks = ids[keep], blocks[keep]
    return ids, blocks


def _csr_cooccurrence_arrays_multi(
    index, entities: np.ndarray, excluded: "np.ndarray | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmented ``cooccurrence_arrays`` over several entities at once.

    Returns ``(ids, block_positions, offsets)``: segment ``i`` reproduces
    ``cooccurrence_arrays(entities[i])`` element for element. One
    multi-range gather per member side serves the whole batch. Blocks
    flagged in the boolean ``excluded`` mask are skipped.
    """
    entities = np.ascontiguousarray(entities, dtype=np.int64)
    n = int(entities.size)
    offsets = np.zeros(n + 1, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty, offsets
    # The entities' B_i runs back to back, in one multi-range gather.
    indptr = index.indptr
    positions, _ = multi_range_gather(indptr, index.block_indices, entities)
    if not positions.size:
        return empty, empty, offsets
    lengths = indptr[entities + 1] - indptr[entities]
    owners = np.repeat(np.arange(n, dtype=np.int64), lengths)
    # Per element: is its owner a second-side entity (bilateral only)?
    second = (
        np.repeat(
            np.asarray(index.second_side_mask, dtype=bool)[entities], lengths
        )
        if index.is_bilateral
        else None
    )
    if excluded is not None:
        keep = ~excluded[positions]
        positions, owners = positions[keep], owners[keep]
        second = None if second is None else second[keep]

    def gather(mask, member_indptr, members):
        group_positions = positions if mask is None else positions[mask]
        group_owners = owners if mask is None else owners[mask]
        ids, blocks = multi_range_gather(
            member_indptr, members, group_positions
        )
        run_lengths = (
            member_indptr[group_positions + 1] - member_indptr[group_positions]
        )
        return ids, blocks, np.repeat(group_owners, run_lengths)

    if second is not None:
        # Second-side entities gather side-1 members and vice versa.
        pieces = [
            gather(second, index.member_indptr1, index.members1),
            gather(~second, index.member_indptr2, index.members2),
        ]
        ids = np.concatenate([piece[0] for piece in pieces])
        blocks = np.concatenate([piece[1] for piece in pieces])
        owner_elements = np.concatenate([piece[2] for piece in pieces])
        order = np.argsort(owner_elements, kind="stable")
        ids, blocks = ids[order], blocks[order]
        owner_elements = owner_elements[order]
    else:
        ids, blocks, owner_elements = gather(
            None, index.member_indptr2, index.members2
        )
        if ids.size:
            keep = ids != entities[owner_elements]
            ids, blocks = ids[keep], blocks[keep]
            owner_elements = owner_elements[keep]
    np.cumsum(np.bincount(owner_elements, minlength=n), out=offsets[1:])
    return ids, blocks, offsets


class EntityIndex:
    """Inverted index over a block collection, CSR-backed.

    The collection's current order defines the block ids; callers that rely
    on LeCoBI semantics (Comparison Propagation, Meta-blocking) should index
    a collection already sorted in processing order
    (:meth:`~repro.datamodel.blocks.BlockCollection.sorted_by_cardinality`).
    """

    #: Static indexes never mutate; :class:`DeltaEntityIndex` overrides this
    #: with a counter so epoch-aware consumers can detect staleness.
    epoch = 0

    def __init__(self, blocks: BlockCollection) -> None:
        self._derive(blocks, blocks.num_entities, *blocks.sides)

    @classmethod
    def from_blocks(cls, blocks: BlockCollection) -> "EntityIndex":
        """Build an index from a block collection (alias of the constructor)."""
        return cls(blocks)

    @classmethod
    def from_csr(
        cls,
        *,
        num_entities: int,
        is_bilateral: bool,
        member_indptr1: np.ndarray,
        members1: np.ndarray,
        member_indptr2: np.ndarray | None = None,
        members2: np.ndarray | None = None,
    ) -> "EntityIndex":
        """Build an index directly from block → member CSR arrays.

        Runs the same derivation (sort, counts, cardinality statistics) as
        the block-collection constructor, so for equal member arrays the
        result is bit-identical to :meth:`from_blocks` on the equivalent
        collection — this is the compaction entry point of
        :class:`~repro.blockprocessing.delta_index.DeltaEntityIndex`. The
        resulting index has ``blocks = None``; accessors fall back to the
        CSR arrays.
        """
        side2 = None
        if is_bilateral:
            if member_indptr2 is None or members2 is None:
                raise ValueError("bilateral CSR requires side-2 member arrays")
            side2 = (member_indptr2, members2)
        self = cls.__new__(cls)
        self._derive(None, num_entities, (member_indptr1, members1), side2)
        return self

    def _derive(
        self,
        blocks: BlockCollection | None,
        num_entities: int,
        side1: tuple[np.ndarray, np.ndarray],
        side2: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Derive the index from block → member CSR ``(indptr, members)``
        pairs, ``side2`` for bilateral collections only: the entity →
        blocks CSR, cardinalities and statistics. Both constructors run
        it, so their arrays agree bit for bit."""
        self.blocks = blocks
        self.is_bilateral = side2 is not None
        self.num_entities = num_entities
        self._cooccurrence_lengths: np.ndarray | None = None
        self.member_indptr1, self.members1 = (
            np.ascontiguousarray(array, dtype=np.int64) for array in side1
        )
        num_blocks = self.member_indptr1.size - 1
        sizes1 = np.diff(self.member_indptr1)

        # -- entity -> blocks CSR ------------------------------------------
        if side2 is not None:
            self.member_indptr2, self.members2 = (
                np.ascontiguousarray(array, dtype=np.int64) for array in side2
            )
            sizes2 = np.diff(self.member_indptr2)
            cardinalities = (sizes1 * sizes2).astype(np.float64)
            entities = np.concatenate((self.members1, self.members2))
            positions = np.concatenate(
                (
                    np.repeat(np.arange(num_blocks, dtype=np.int64), sizes1),
                    np.repeat(np.arange(num_blocks, dtype=np.int64), sizes2),
                )
            )
        else:
            self.member_indptr2 = self.member_indptr1
            self.members2 = self.members1
            cardinalities = (sizes1 * (sizes1 - 1) // 2).astype(np.float64)
            entities = self.members1
            positions = np.repeat(np.arange(num_blocks, dtype=np.int64), sizes1)
        # Sort assignments by (entity, position) so every entity's block
        # list comes out ascending — the LeCoBI requirement. One sort of
        # ``entity * |B| + position`` keys orders them as a lexsort would.
        self.block_indices = np.sort(entities * num_blocks + positions) % max(
            num_blocks, 1
        )
        self.block_counts = np.bincount(
            entities, minlength=self.num_entities
        ).astype(np.int64, copy=False)
        self.indptr = np.zeros(self.num_entities + 1, dtype=np.int64)
        np.cumsum(self.block_counts, out=self.indptr[1:])
        # Lazily materialised list-of-lists view for the scalar backends.
        self._block_lists_cache: list[list[int]] | None = None

        # -- per-block / per-entity statistics -----------------------------
        with np.errstate(divide="ignore"):
            inverse = np.where(cardinalities > 0, 1.0 / cardinalities, 0.0)
        self.inverse_cardinality_array = inverse
        self.inverse_cardinalities: list[float] = inverse.tolist()

        # For bilateral (Clean-Clean) collections, record which side of the
        # split every entity lives on; algorithms use it to pick the
        # "other side" of a block in O(1) instead of scanning membership.
        self.second_side_mask = np.zeros(self.num_entities, dtype=bool)
        if self.is_bilateral and self.members2.size:
            self.second_side_mask[self.members2] = True
        self._second_side: list[bool] = self.second_side_mask.tolist()

    def __repr__(self) -> str:
        return f"EntityIndex(|B|={self.num_blocks}, |E|={self.num_entities})"

    @property
    def num_blocks(self) -> int:
        """``|B|`` — number of blocks in the indexed collection."""
        return self.member_indptr1.size - 1

    @property
    def aggregate_size(self) -> int:
        """``sum(|b|)`` — total block assignments, one per CSR entry."""
        return int(self.block_indices.size)

    @property
    def _block_lists(self) -> list[list[int]]:
        """List-of-lists view of the entity → blocks CSR (built on demand)."""
        if self._block_lists_cache is None:
            flat = self.block_indices.tolist()
            indptr = self.indptr.tolist()
            self._block_lists_cache = [
                flat[indptr[entity] : indptr[entity + 1]]
                for entity in range(self.num_entities)
            ]
        return self._block_lists_cache

    def in_second_collection(self, entity: int) -> bool:
        """True iff the entity appears on the second side of bilateral blocks."""
        return self._second_side[entity]

    def cooccurring(self, entity: int, block_position: int):
        """Entities the given one is compared with inside one of its blocks.

        For unilateral blocks these are all members (the caller filters out
        ``entity`` itself); for bilateral blocks, the members of the opposite
        side. Returns the block's tuples when built from a collection, a CSR
        member view when built :meth:`from_csr`.
        """
        if self.blocks is None:
            if self.is_bilateral and self._second_side[entity]:
                indptr, members = self.member_indptr1, self.members1
            else:
                indptr, members = self.member_indptr2, self.members2
            return members[indptr[block_position] : indptr[block_position + 1]]
        block = self.blocks[block_position]
        if block.entities2 is None:
            return block.entities1
        if self._second_side[entity]:
            return block.entities1
        return block.entities2

    def cooccurrence_arrays(self, entity: int) -> tuple[np.ndarray, np.ndarray]:
        """All of ``entity``'s comparison partners across its blocks, columnar.

        Returns ``(ids, blocks)``: the co-occurring entity ids of every block
        in ``B_i`` back to back (an id repeats once per shared block) and,
        aligned, the block position each came from. Self co-occurrences are
        already filtered for unilateral collections.
        """
        return _csr_cooccurrence_arrays(self, entity)

    def cooccurrence_arrays_multi(
        self, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segmented :meth:`cooccurrence_arrays` for several entities.

        ``(ids, block_positions, offsets)``; segment ``i`` reproduces
        ``cooccurrence_arrays(entities[i])`` element for element.
        """
        return _csr_cooccurrence_arrays_multi(self, entities)

    def cooccurrence_lengths(self, entities: np.ndarray) -> np.ndarray:
        """``len(cooccurrence_arrays(i)[0])`` for every ``i`` in ``entities``.

        Counted from the block sizes without gathering: an upper bound of
        each entity's neighbourhood size, zero exactly when it is empty.
        Computed once per index (it is immutable).
        """
        if self._cooccurrence_lengths is None:
            self._cooccurrence_lengths = _csr_cooccurrence_lengths(self)
        return self._cooccurrence_lengths[np.asarray(entities, dtype=np.int64)]

    def block_list(self, entity: int) -> list[int]:
        """``B_i`` — ascending block positions containing ``entity``."""
        return self._block_lists[entity]

    def block_slice(self, entity: int) -> np.ndarray:
        """``B_i`` as a zero-copy int64 view into the CSR."""
        return self.block_indices[self.indptr[entity] : self.indptr[entity + 1]]

    def num_blocks_of(self, entity: int) -> int:
        """``|B_i|`` — how many blocks contain ``entity``."""
        return int(self.block_counts[entity])

    def placed_entities(self) -> list[int]:
        """Entity ids that participate in at least one block (``V_B``)."""
        return np.flatnonzero(self.block_counts).tolist()

    def common_blocks(self, left: int, right: int) -> list[int]:
        """The ascending positions of blocks shared by both entities."""
        first, second = self._block_lists[left], self._block_lists[right]
        common: list[int] = []
        pos_first = pos_second = 0
        while pos_first < len(first) and pos_second < len(second):
            if first[pos_first] < second[pos_second]:
                pos_first += 1
            elif first[pos_first] > second[pos_second]:
                pos_second += 1
            else:
                common.append(first[pos_first])
                pos_first += 1
                pos_second += 1
        return common

    def least_common_block(self, left: int, right: int) -> int | None:
        """The smallest shared block position, or None if disjoint."""
        first, second = self._block_lists[left], self._block_lists[right]
        pos_first = pos_second = 0
        while pos_first < len(first) and pos_second < len(second):
            if first[pos_first] < second[pos_second]:
                pos_first += 1
            elif first[pos_first] > second[pos_second]:
                pos_second += 1
            else:
                return first[pos_first]
        return None

    def satisfies_lecobi(self, left: int, right: int, block_position: int) -> bool:
        """Least Common Block Index condition (paper, Section 2).

        A comparison ``left``-``right`` inside the block at ``block_position``
        is non-redundant iff that position is the least common block id of
        the two entities: the pair is then "executed" exactly once, in the
        first block of the processing order that contains both.
        """
        return self.least_common_block(left, right) == block_position
