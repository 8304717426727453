"""Blocks, block collections and comparison collections.

Terminology follows the paper's Section 3:

* a block ``b`` groups entity ids that share a blocking key; ``|b|`` is its
  *size* (number of profiles) and ``||b||`` its *cardinality* (number of
  pairwise comparisons it entails);
* a block collection ``B`` is a set of blocks; ``|B|`` is its size (number of
  blocks) and ``||B||`` its cardinality (total comparisons).

Two block shapes exist:

* **unilateral** blocks (Dirty ER): one entity list, every unordered pair is
  a comparison, so ``||b|| = |b|·(|b|-1)/2``;
* **bilateral** blocks (Clean-Clean ER): one entity list per source
  collection, comparisons are the cross product, ``||b|| = |b1|·|b2|``.

Entity ids in bilateral blocks live in the *unified id space* of the dataset
(ids of collection 2 are offset by ``|E1|``), so every algorithm downstream
of blocking is task-agnostic.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

Comparison = tuple[int, int]


class Block:
    """A single block: entities sharing one blocking key.

    Parameters
    ----------
    key:
        The blocking key (token, q-gram, cluster id...). Purely informative.
    entities1:
        Entity ids. For unilateral blocks these are all members; for
        bilateral blocks, the members from the first source collection.
    entities2:
        ``None`` for unilateral blocks; for bilateral blocks, the member ids
        from the second source collection (already offset into the unified
        id space).
    """

    __slots__ = ("key", "entities1", "entities2")

    def __init__(
        self,
        key: str,
        entities1: Iterable[int],
        entities2: Iterable[int] | None = None,
    ) -> None:
        self.key = key
        self.entities1: tuple[int, ...] = tuple(entities1)
        self.entities2: tuple[int, ...] | None = (
            None if entities2 is None else tuple(entities2)
        )

    def __repr__(self) -> str:
        if self.is_bilateral:
            return (
                f"Block({self.key!r}, {list(self.entities1)} x "
                f"{list(self.entities2)})"
            )
        return f"Block({self.key!r}, {list(self.entities1)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.key == other.key
            and self.entities1 == other.entities1
            and self.entities2 == other.entities2
        )

    def __hash__(self) -> int:
        return hash((self.key, self.entities1, self.entities2))

    @property
    def is_bilateral(self) -> bool:
        return self.entities2 is not None

    @property
    def all_entities(self) -> tuple[int, ...]:
        """Every member id, both sides for bilateral blocks."""
        if self.entities2 is None:
            return self.entities1
        return self.entities1 + self.entities2

    @property
    def size(self) -> int:
        """``|b|`` — the number of profiles placed in this block."""
        return len(self.entities1) + (
            len(self.entities2) if self.entities2 is not None else 0
        )

    @property
    def cardinality(self) -> int:
        """``||b||`` — the number of comparisons the block entails."""
        if self.entities2 is None:
            n = len(self.entities1)
            return n * (n - 1) // 2
        return len(self.entities1) * len(self.entities2)

    @property
    def is_valid(self) -> bool:
        """A block is worth keeping only if it yields at least 1 comparison."""
        return self.cardinality > 0

    def comparisons(self) -> Iterator[Comparison]:
        """Yield every comparison as a canonical ``(smaller_id, larger_id)``.

        For unilateral blocks this is every unordered member pair; for
        bilateral blocks, the cross product of the two sides.
        """
        if self.entities2 is None:
            members = self.entities1
            for first_pos in range(len(members)):
                for second_pos in range(first_pos + 1, len(members)):
                    left, right = members[first_pos], members[second_pos]
                    yield (left, right) if left < right else (right, left)
        else:
            for left in self.entities1:
                for right in self.entities2:
                    yield (left, right) if left < right else (right, left)

    def without_entities(self, removed: set[int]) -> "Block":
        """Return a copy of the block with the given entity ids removed."""
        entities1 = tuple(e for e in self.entities1 if e not in removed)
        if self.entities2 is None:
            return Block(self.key, entities1)
        entities2 = tuple(e for e in self.entities2 if e not in removed)
        return Block(self.key, entities1, entities2)


def csr_offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets (``indptr``) of consecutive runs with these sizes."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def flatten_runs(runs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten id sequences into CSR ``(indptr, members)`` int64 arrays."""
    indptr = csr_offsets(np.fromiter(map(len, runs), dtype=np.int64, count=len(runs)))
    members = np.fromiter(
        chain.from_iterable(runs), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, members


def run_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of several runs back to back: run ``i`` covers
    ``starts[i]`` up to ``starts[i] + lengths[i]``, in one arange."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )


def multi_range_gather(
    member_indptr: np.ndarray, members: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather several CSR member runs back to back, in one fancy-index.

    Returns ``(ids, blocks)``: the concatenated member runs of ``positions``
    and, aligned element-for-element, the block position each id came from.
    The runs appear in the order of ``positions``.
    """
    if positions.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = member_indptr[positions]
    lengths = member_indptr[positions + 1] - starts
    if not lengths.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return members[run_positions(starts, lengths)], np.repeat(positions, lengths)


class BlockCollection(Sequence[Block]):
    """An ordered list of blocks over a fixed entity id universe.

    The order of blocks matters: Comparison Propagation and Meta-blocking
    enumerate blocks by *processing order* (ascending cardinality — the
    paper's choice, smallest blocks are most important). Use
    :meth:`sorted_by_cardinality` to obtain that canonical order.

    Storage is columnar (CSR): :attr:`keys` holds one blocking key per
    block; ``indptr1``/``members1`` list each block's members (its first
    side, for bilateral blocks), block ``i`` owning
    ``members1[indptr1[i]:indptr1[i+1]]``; and ``indptr2``/``members2``
    hold the second sides of a bilateral collection (``None`` otherwise).
    Members keep their order within a block. The :class:`Block` objects of
    the ``Sequence`` API are a view, built on first access.

    Parameters
    ----------
    blocks:
        The member blocks, all unilateral or all bilateral (a mix raises
        ``ValueError``); they are flattened once. :meth:`from_csr` builds a
        collection from arrays.
    num_entities:
        ``|E|`` of the input dataset — the size of the unified id space.
        Needed for BPE and for sizing the arrays of the optimized algorithms.
    """

    def __init__(self, blocks: Iterable[Block], num_entities: int) -> None:
        blocks = list(blocks)
        sides2 = [block.entities2 for block in blocks if block.is_bilateral]
        if sides2 and len(sides2) != len(blocks):
            raise ValueError(
                "a block collection holds unilateral or bilateral blocks, "
                "not both"
            )
        self._init(
            [block.key for block in blocks],
            num_entities,
            flatten_runs([block.entities1 for block in blocks]),
            flatten_runs(sides2) if sides2 else None,
        )
        self._blocks = blocks

    @classmethod
    def from_csr(
        cls,
        keys: list,
        num_entities: int,
        indptr1: np.ndarray,
        members1: np.ndarray,
        indptr2: np.ndarray | None = None,
        members2: np.ndarray | None = None,
    ) -> "BlockCollection":
        """A collection over block → member CSR arrays, kept as given.

        ``indptr2``/``members2`` are given for bilateral collections only.
        A collection without blocks is unilateral, whatever its arrays.
        """
        if (indptr2 is None) != (members2 is None):
            raise ValueError("the second side needs both indptr2 and members2")
        self = cls.__new__(cls)
        self._init(
            keys,
            num_entities,
            (indptr1, members1),
            None if indptr2 is None else (indptr2, members2),
        )
        return self

    def _init(self, keys: list, num_entities: int, side1, side2) -> None:
        if num_entities < 0:
            raise ValueError(f"num_entities must be >= 0, got {num_entities}")
        self.keys = keys
        self.num_entities = num_entities
        self.indptr1, self.members1 = (
            np.asarray(array, dtype=np.int64) for array in side1
        )
        self.indptr2: np.ndarray | None = None
        self.members2: np.ndarray | None = None
        if side2 is not None and len(keys):
            self.indptr2, self.members2 = (
                np.asarray(array, dtype=np.int64) for array in side2
            )
        if any(indptr.size != len(keys) + 1 for indptr, _ in self.sides):
            raise ValueError(f"member offsets do not match {len(keys)} keys")
        self._blocks: list[Block] | None = None

    @property
    def sides(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(indptr, members)`` of side 1, then of side 2 when bilateral."""
        if self.indptr2 is None or self.members2 is None:
            return [(self.indptr1, self.members1)]
        return [(self.indptr1, self.members1), (self.indptr2, self.members2)]

    @property
    def blocks(self) -> list[Block]:
        """The blocks as :class:`Block` objects (the view, built once)."""
        if self._blocks is None:
            runs = []
            for indptr, members in self.sides:
                bounds, flat = indptr.tolist(), members.tolist()
                runs.append(map(flat.__getitem__, map(slice, bounds, bounds[1:])))
            self._blocks = list(map(Block, self.keys, *runs))
        return self._blocks

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):  # type: ignore[override]
        return self.blocks[index]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return (
            f"BlockCollection(|B|={len(self)}, "
            f"||B||={self.cardinality}, |E|={self.num_entities})"
        )

    @property
    def is_bilateral(self) -> bool:
        """True when the collection holds Clean-Clean ER (bilateral) blocks."""
        return self.indptr2 is not None

    @property
    def block_sizes(self) -> np.ndarray:
        """``|b|`` of every block, as an int64 array."""
        sizes = np.diff(self.indptr1)
        if self.indptr2 is not None:
            sizes += np.diff(self.indptr2)
        return sizes

    @property
    def block_cardinalities(self) -> np.ndarray:
        """``||b||`` of every block, as an int64 array."""
        sizes1 = np.diff(self.indptr1)
        if self.indptr2 is not None:
            return sizes1 * np.diff(self.indptr2)
        return sizes1 * (sizes1 - 1) // 2

    @property
    def cardinality(self) -> int:
        """``||B||`` — total number of comparisons, redundant ones included."""
        return int(self.block_cardinalities.sum())

    @property
    def aggregate_size(self) -> int:
        """``sum(|b| for b in B)`` — total block assignments."""
        return sum(members.size for _, members in self.sides)

    @property
    def bpe(self) -> float:
        """Blocks Per Entity: ``sum(|b|)/|E|`` (paper, Section 4.3)."""
        if self.num_entities == 0:
            return 0.0
        return self.aggregate_size / self.num_entities

    def iter_comparisons(self) -> Iterator[Comparison]:
        """Yield all comparisons block by block (redundant pairs repeat)."""
        for block in self.blocks:
            yield from block.comparisons()

    def distinct_comparisons(self) -> set[Comparison]:
        """The comparisons with redundancy removed — the blocking graph edges."""
        return set(self.iter_comparisons())

    def entity_ids(self) -> set[int]:
        """Distinct entity ids placed in at least one block (``|V_B|``)."""
        return set(np.concatenate([members for _, members in self.sides]).tolist())

    def block_assignments(self) -> dict[int, int]:
        """Map entity id -> number of blocks it participates in."""
        ids, counts = np.unique(
            np.concatenate([members for _, members in self.sides]),
            return_counts=True,
        )
        return dict(zip(ids.tolist(), counts.tolist()))

    def take(self, positions: np.ndarray) -> "BlockCollection":
        """The blocks at ``positions`` (an int array), in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        arrays = []
        for indptr, members in self.sides:
            gathered, _ = multi_range_gather(indptr, members, positions)
            arrays += [csr_offsets(indptr[positions + 1] - indptr[positions]), gathered]
        return BlockCollection.from_csr(
            list(map(self.keys.__getitem__, positions.tolist())),
            self.num_entities,
            *arrays,
        )

    def sorted_by_cardinality(self) -> "BlockCollection":
        """Return a copy sorted by ascending cardinality (processing order).

        Ties are broken by block key, then by input order, so the order is
        fully deterministic.
        """
        keys = self.keys
        key_rank = np.empty(len(keys), dtype=np.int64)
        key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(
            len(keys)
        )
        return self.take(np.lexsort((key_rank, self.block_cardinalities)))

    def only_valid(self) -> "BlockCollection":
        """Drop blocks that entail no comparison."""
        return self.take(np.flatnonzero(self.block_cardinalities > 0))


class ComparisonCollection:
    """An explicit list of pairwise comparisons.

    This is the natural output shape of meta-blocking's pruning phase: the
    paper materialises one size-2 block per retained edge; we keep the pairs
    directly, which is equivalent for every measure and far lighter. The
    pair list *may* contain repeats — the original CNP/WNP retain an edge in
    both incident node neighbourhoods, and those redundant comparisons are
    exactly what the redefined algorithms remove, so preserving them here is
    essential for faithful PQ numbers.
    """

    def __init__(self, pairs: Iterable[Comparison], num_entities: int) -> None:
        self.pairs: list[Comparison] = [
            (left, right) if left < right else (right, left) for left, right in pairs
        ]
        self.num_entities = num_entities

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Comparison]:
        return iter(self.pairs)

    def __repr__(self) -> str:
        return f"ComparisonCollection(||B||={len(self.pairs)})"

    @property
    def cardinality(self) -> int:
        """``||B'||`` — number of retained comparisons (repeats included)."""
        return len(self.pairs)

    def iter_comparisons(self) -> Iterator[Comparison]:
        return iter(self.pairs)

    def distinct_comparisons(self) -> set[Comparison]:
        return set(self.pairs)

    def entity_ids(self) -> set[int]:
        ids: set[int] = set()
        for left, right in self.pairs:
            ids.add(left)
            ids.add(right)
        return ids

    def to_blocks(self) -> BlockCollection:
        """Materialise one size-2 block per comparison (paper Figure 2c)."""
        blocks = [
            Block(f"pair-{index}", (left, right))
            for index, (left, right) in enumerate(self.pairs)
        ]
        return BlockCollection(blocks, self.num_entities)
