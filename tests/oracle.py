"""Plain dict-and-list transcriptions of the paper's algorithms.

These are the judges of the differential tests: each one follows the
pseudo-code in PAPER.md line by line and shares no code with the package
(it imports nothing from ``repro``). A block is a ``(key, side1, side2)``
tuple of lists, ``side2`` being ``None`` for a unilateral (Dirty ER) block.
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
