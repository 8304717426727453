"""Block Purging: discard oversized blocks.

Oversized blocks (stop-word tokens, boilerplate values) are dominated by
redundant and superfluous comparisons. Block Purging [Papadakis et al.,
TKDE 2013] drops whole blocks above an upper limit. The paper's evaluation
(Section 6.2) applies the simple size-based variant — "discard those blocks
that contained more than half of the input entity profiles" — before any
meta-blocking; we default to that, and additionally provide the
cardinality-based automatic threshold of the original formulation for users
who want a data-driven limit.
"""

from __future__ import annotations

import numpy as np

from repro.datamodel.blocks import BlockCollection


class BlockPurging:
    """Remove oversized blocks from a collection.

    Parameters
    ----------
    size_fraction:
        Purge every block whose size ``|b|`` exceeds ``size_fraction * |E|``.
        The paper uses 0.5. Set to ``None`` to disable the size rule.
    auto_cardinality:
        When True, additionally compute the automatic cardinality threshold
        of the original Block Purging (see :func:`automatic_cardinality_threshold`)
        and purge blocks whose ``||b||`` exceeds it.
    smoothing_factor:
        Tolerance of the automatic threshold; larger values purge less.
    """

    def __init__(
        self,
        size_fraction: float | None = 0.5,
        auto_cardinality: bool = False,
        smoothing_factor: float = 1.025,
    ) -> None:
        if size_fraction is not None and not 0.0 < size_fraction <= 1.0:
            raise ValueError(
                f"size_fraction must be in (0, 1], got {size_fraction}"
            )
        if smoothing_factor < 1.0:
            raise ValueError(
                f"smoothing_factor must be >= 1, got {smoothing_factor}"
            )
        self.size_fraction = size_fraction
        self.auto_cardinality = auto_cardinality
        self.smoothing_factor = smoothing_factor

    def process(self, blocks: BlockCollection) -> BlockCollection:
        """Return a new collection without the oversized blocks."""
        keep = np.ones(len(blocks), dtype=bool)
        if self.size_fraction is not None:
            keep &= blocks.block_sizes <= self.size_fraction * blocks.num_entities
        if self.auto_cardinality:
            keep &= blocks.block_cardinalities <= automatic_cardinality_threshold(
                blocks, self.smoothing_factor
            )
        return blocks.take(np.flatnonzero(keep))


def automatic_cardinality_threshold(
    blocks: BlockCollection, smoothing_factor: float = 1.025
) -> int:
    """Data-driven maximum block cardinality (original Block Purging).

    Walking the distinct block cardinalities in ascending order, track the
    cumulative block assignments (BC) and cumulative comparisons (CC) of the
    collection truncated at each level. While blocks stay small, BC and CC
    grow together; once the oversized blocks enter, CC explodes relative to
    BC. The threshold is the last level before the ratio BC/CC deteriorates
    beyond the smoothing tolerance — i.e. the first level where

        current_BC * previous_CC < smoothing_factor * current_CC * previous_BC

    fails to keep pace. This mirrors the reference implementation
    (comparison-based Block Purging in the authors' published framework).
    """
    if not len(blocks):
        return 0
    # Per distinct cardinality level: its blocks' summed sizes and
    # comparisons, from one sort of the cardinality array.
    cardinalities = blocks.block_cardinalities
    order = np.argsort(cardinalities)
    ordered = cardinalities[order]
    distinct, starts = np.unique(ordered, return_index=True)
    levels = distinct.tolist()
    level_assignments = np.add.reduceat(blocks.block_sizes[order], starts)
    level_comparisons = np.add.reduceat(ordered, starts)
    threshold = levels[-1]
    cumulative_assignments = 0
    cumulative_comparisons = 0
    previous_assignments = 0
    previous_comparisons = 0
    for level, assignments, comparisons in zip(
        levels, level_assignments.tolist(), level_comparisons.tolist()
    ):
        cumulative_assignments += assignments
        cumulative_comparisons += comparisons
        if previous_comparisons and (
            cumulative_assignments * previous_comparisons
            < smoothing_factor * cumulative_comparisons * previous_assignments
        ):
            # BC/CC dropped by more than the tolerance: blocks at this level
            # and above are dominated by unnecessary comparisons.
            threshold = previous_level
            break
        previous_assignments = cumulative_assignments
        previous_comparisons = cumulative_comparisons
        previous_level = level
    return threshold
