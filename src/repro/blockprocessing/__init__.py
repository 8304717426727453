"""Block processing methods that operate on an existing block collection.

These are the paper's Section 2 companions and baselines:

* :class:`~repro.blockprocessing.entity_index.EntityIndex` — the inverted
  index from entity ids to block ids that underpins every other method.
* :class:`~repro.blockprocessing.block_purging.BlockPurging` — discard
  oversized blocks (used as pre-processing in the paper's evaluation).
* :class:`~repro.blockprocessing.comparison_propagation.ComparisonPropagation`
  — remove every redundant comparison via the LeCoBI condition.
* :class:`~repro.blockprocessing.iterative_blocking.IterativeBlocking` — the
  state-of-the-art baseline that propagates detected matches across blocks.
"""

from repro.blockprocessing.block_purging import BlockPurging
from repro.blockprocessing.block_scheduling import (
    BlockPruning,
    BlockPruningResult,
    BlockScheduling,
)
from repro.blockprocessing.comparison_propagation import ComparisonPropagation
from repro.blockprocessing.delta_index import (
    DeltaEntityIndex,
    epoch_number,
    latest_epoch,
    load_epoch,
    load_epoch_state,
    save_epoch,
    sweep_stale_epochs,
)
from repro.blockprocessing.entity_index import EntityIndex
from repro.blockprocessing.iterative_blocking import (
    IterativeBlocking,
    IterativeBlockingResult,
)

__all__ = [
    "BlockPruning",
    "BlockPruningResult",
    "BlockPurging",
    "BlockScheduling",
    "ComparisonPropagation",
    "DeltaEntityIndex",
    "EntityIndex",
    "IterativeBlocking",
    "IterativeBlockingResult",
    "epoch_number",
    "latest_epoch",
    "load_epoch",
    "load_epoch_state",
    "save_epoch",
    "sweep_stale_epochs",
]
