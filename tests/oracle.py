"""Plain dict-and-list transcriptions of the paper's algorithms.

These are the judges of the differential tests: each one follows the
pseudo-code in PAPER.md line by line and shares no code with the package
(it imports nothing from ``repro``). A block is a ``(key, side1, side2)``
tuple of lists, ``side2`` being ``None`` for a unilateral (Dirty ER) block;
the streaming judge keeps its blocks as key → member lists.
"""

from __future__ import annotations


def cardinality(block) -> int:
    """``||b||``: every member pair, or the cross product of the sides."""
    _, side1, side2 = block
    if side2 is None:
        return len(side1) * (len(side1) - 1) // 2
    return len(side1) * len(side2)


def block_filtering(blocks, ratio: float) -> list:
    """Algorithm 1 (Block Filtering) over a list of blocks.

    Blocks are processed by ascending cardinality, ties broken by key and
    then by input order. Entity ``i`` may stay in ``maxBlocks[i] =
    max(1, round(r · |B_i|))`` blocks, rounding half up; walking the blocks
    in order, it is kept while its counter is below that limit. Blocks left
    without a comparison are dropped.
    """
    ordered = sorted(blocks, key=lambda block: (cardinality(block), block[0]))
    assignments: dict[int, int] = {}
    for _, side1, side2 in ordered:
        for entity in list(side1) + list(side2 or []):
            assignments[entity] = assignments.get(entity, 0) + 1
    max_blocks = {
        entity: max(1, int(ratio * count + 0.5))
        for entity, count in assignments.items()
    }
    counters = dict.fromkeys(assignments, 0)

    def retain(side):
        kept = []
        for entity in side:
            if counters[entity] < max_blocks[entity]:
                counters[entity] += 1
                kept.append(entity)
        return kept

    filtered = []
    for key, side1, side2 in ordered:
        block = (key, retain(side1), None if side2 is None else retain(side2))
        if cardinality(block) > 0:
            filtered.append(block)
    return filtered


def node_top_k(
    blocks, num_entities: int, scheme: str, k: "int | None" = None
) -> tuple:
    """Each node's ``k`` heaviest neighbours, for CBS and JS: the shared
    core of Algorithm 4 and of original CNP.

    Returns ``(shared, top)``: ``shared`` maps every distinct edge, as a
    ``(low, high)`` pair, to ``|B_ij|``, the blocks in which ``i`` and
    ``j`` are compared (two members of a unilateral block, or one member
    of each side of a bilateral one); ``top`` maps each node with a
    neighbour to the set of its top-``k`` neighbours, ties to the larger
    id. ``|B_i|`` counts every block holding entity ``i``, and ``k``
    defaults to ``max(1, floor(sum(|b|) / |E| - 1))``.
    """
    block_counts = [0] * num_entities
    shared: dict[tuple[int, int], int] = {}
    assignments = 0
    for _, side1, side2 in blocks:
        members = list(side1) + list(side2 or [])
        assignments += len(members)
        for entity in members:
            block_counts[entity] += 1
        if side2 is None:
            pairs = [
                (left, right)
                for position, left in enumerate(side1)
                for right in side1[position + 1 :]
            ]
        else:
            pairs = [(left, right) for left in side1 for right in side2]
        for left, right in pairs:
            pair = (min(left, right), max(left, right))
            shared[pair] = shared.get(pair, 0) + 1
    if k is None:
        k = max(1, int(assignments / num_entities - 1))

    neighbours: dict[int, list] = {}
    for (left, right), common in shared.items():
        if scheme == "CBS":
            weight = float(common)
        else:
            union = block_counts[left] + block_counts[right]
            weight = common / (union - common)
        neighbours.setdefault(left, []).append((weight, right))
        neighbours.setdefault(right, []).append((weight, left))
    top = {
        entity: {other for _, other in sorted(rows, reverse=True)[:k]}
        for entity, rows in neighbours.items()
    }
    return shared, top


def cnp(blocks, num_entities: int, scheme: str, k: "int | None" = None) -> list:
    """Original CNP over a list of blocks, for CBS and JS: every node's
    top-``k`` neighbours (:func:`node_top_k`) as ``(low, high)`` pairs, a
    pair kept once for each end that selects it. Returns the pairs,
    sorted, repeats included."""
    _, top = node_top_k(blocks, num_entities, scheme, k)
    return sorted(
        (min(entity, other), max(entity, other))
        for entity, others in top.items()
        for other in others
    )


def redefined_cnp(
    blocks, num_entities: int, scheme: str, k: "int | None" = None,
    conjunctive: bool = False,
) -> list:
    """Algorithm 4 (Redefined CNP) over a list of blocks, for CBS and JS;
    with ``conjunctive``, Reciprocal CNP. Returns the retained pairs,
    sorted.

    Phase 1 keeps each node's ``k`` heaviest neighbours
    (:func:`node_top_k`); phase 2 walks every distinct edge once and keeps
    it if either endpoint (both, with ``conjunctive``) kept the other.
    """
    shared, top = node_top_k(blocks, num_entities, scheme, k)
    retained = []
    for left, right in sorted(shared):
        in_left = right in top[left]
        in_right = left in top[right]
        if (in_left and in_right) if conjunctive else (in_left or in_right):
            retained.append((left, right))
    return retained


class StreamingResolver:
    """The streaming upsert, one profile at a time, for CBS and JS.

    ``blocks`` maps a key to its members in insertion order, both sources
    together; ``keys_of[i]`` is ``B_i``, the keys entity ``i`` joined. A
    block grown past ``max_block_size`` is veiled: it keeps its members,
    and so its size and everyone's ``|B_i|``, but yields no co-occurrence.
    Under Clean-Clean ER only entities of different sources co-occur.
    """

    def __init__(
        self,
        scheme: str,
        k: int,
        ratio: float,
        max_block_size: "int | None" = None,
        reciprocal: bool = False,
        clean_clean: bool = False,
    ) -> None:
        self.scheme = scheme
        self.k = k
        self.ratio = ratio
        self.max_block_size = max_block_size
        self.reciprocal = reciprocal
        self.clean_clean = clean_clean
        self.blocks: dict[str, list[int]] = {}
        self.veiled: set[str] = set()
        self.keys_of: list[list[str]] = []
        self.sources: list[int] = []

    def add(self, tokens, source: int = 0) -> list:
        """Insert one profile; its ``(id, weight, |B_ij|)`` candidates.

        Block Filtering at insertion: fresh keys are always kept; of the
        keys that already have a block, only the ``max(1, round(r · n))``
        smallest current blocks (ties by key) are joined. Blocks past the
        size guard are veiled after the join. The new entity's top-``k``
        neighbours (ties to the larger id) are candidates; the reciprocal
        test keeps only those whose own top-``k``, on the state after this
        insertion, holds the new entity. Candidates come by descending
        weight, ties by ascending id.
        """
        keys = sorted(set(tokens))
        fresh = [key for key in keys if key not in self.blocks]
        existing = sorted(
            (key for key in keys if key in self.blocks),
            key=lambda key: (len(self.blocks[key]), key),
        )
        limit = max(1, int(self.ratio * len(existing) + 0.5))
        entity = len(self.keys_of)
        self.keys_of.append(fresh + existing[:limit])
        self.sources.append(source if self.clean_clean else 0)
        for key in self.keys_of[entity]:
            members = self.blocks.setdefault(key, [])
            members.append(entity)
            guard = self.max_block_size
            if guard is not None and len(members) > guard:
                self.veiled.add(key)
        candidates = [
            row
            for row in self.top_k(entity)
            if not self.reciprocal
            or entity in [other for other, _, _ in self.top_k(row[0])]
        ]
        return sorted(candidates, key=lambda row: (-row[1], row[0]))

    def top_k(self, entity: int) -> list:
        """The ``k`` heaviest ``(id, weight, |B_ij|)`` neighbours of
        ``entity`` now, ties to the larger id."""
        common: dict[int, int] = {}
        for key in self.keys_of[entity]:
            if key in self.veiled:
                continue
            for other in self.blocks[key]:
                if other != entity and (
                    not self.clean_clean
                    or self.sources[other] != self.sources[entity]
                ):
                    common[other] = common.get(other, 0) + 1
        rows = []
        for other, shared in common.items():
            if self.scheme == "CBS":
                weight = float(shared)
            else:
                union = len(self.keys_of[entity]) + len(self.keys_of[other])
                weight = shared / (union - shared)
            rows.append((other, weight, shared))
        rows.sort(key=lambda row: (row[1], row[0]), reverse=True)
        return rows[: self.k]
