"""Per-edge feature vectors for supervised meta-blocking.

The feature set follows the PVLDB 2014 paper's design goal — generic
features with low extraction cost and high discriminatory power, all
derivable from the co-occurrence statistics one ScanCount pass produces:

``CFIBF``  (index 0)
    Common blocks count (CBS), the raw co-occurrence frequency.
``RACCB``  (index 1)
    Reciprocal aggregate cardinality of common blocks (the ARCS sum):
    small shared blocks are strong evidence.
``JS``     (index 2)
    Jaccard overlap of the two block lists.
``ECBS``   (index 3)
    CBS discounted by the profiles' block-list sizes (the IDF factor).
``RS``     (index 4)
    Relative support: ``|B_ij| / min(|B_i|, |B_j|)`` — how much of the
    rarer profile's evidence the pair covers.

Those statistics are what every weighting backend hands to
:meth:`~repro.core.weights.WeightingScheme.weight_array`, so one function,
:func:`edge_features`, serves the classifier scheme and the labelled pairs.
"""

from __future__ import annotations

import numpy as np

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.weights import _log10_ratios
from repro.datamodel.blocks import BlockCollection

FEATURE_NAMES = ("CFIBF", "RACCB", "JS", "ECBS", "RS")


def edge_features(
    common_blocks, arcs_sum, blocks_i, blocks_j, total_blocks: int
) -> np.ndarray:
    """One feature row per directed edge ``i -> j``; zero statistics give
    zero features. ECBS is ``(|B_ij| · log_i) · log_j``, so an edge's two
    directions may differ in the last bit."""
    common = np.asarray(common_blocks, dtype=np.float64)
    blocks_i = np.asarray(blocks_i, dtype=np.int64)
    blocks_j = np.asarray(blocks_j, dtype=np.int64)
    denominator = blocks_i + blocks_j - common
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard = np.where(denominator != 0, common / denominator, 0.0)
        support = np.where(common != 0, common / np.minimum(blocks_i, blocks_j), 0.0)
    # An empty block list has a 0.0 log placeholder, hence a 0.0 ECBS.
    log_i, log_j = _log10_ratios(total_blocks, blocks_i, blocks_j)
    arcs = np.asarray(arcs_sum, dtype=np.float64)
    return np.column_stack((common, arcs, jaccard, common * log_i * log_j, support))


class EdgeFeatureExtractor:
    """The Entity Index a supervised model is trained and applied on."""

    def __init__(self, blocks: BlockCollection) -> None:
        self.blocks = blocks
        self.index = EntityIndex(blocks)
        self.total_blocks = max(1, len(blocks))

    def features_for(self, left: int, right: int) -> np.ndarray:
        """Feature vector of one (possibly non-)edge."""
        common_blocks = self.index.common_blocks(left, right)
        arcs_sum = sum(
            self.index.inverse_cardinalities[position]
            for position in common_blocks
        )
        return edge_features(
            [len(common_blocks)],
            [arcs_sum],
            [self.index.num_blocks_of(left)],
            [self.index.num_blocks_of(right)],
            self.total_blocks,
        )[0]
