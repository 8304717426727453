"""Pruning algorithms: discard blocking-graph edges unlikely to match.

Prior art (paper Section 3, from Papadakis et al. TKDE 2014):

* :class:`CardinalityEdgePruning` (CEP) — global top-K edges.
* :class:`CardinalityNodePruning` (CNP) — top-k edges per node.
* :class:`WeightedEdgePruning` (WEP) — edges above the global mean weight.
* :class:`WeightedNodePruning` (WNP) — edges above their neighbourhood mean.

This paper's contributions (Section 5):

* :class:`RedefinedCardinalityNodePruning` / :class:`RedefinedWeightedNodePruning`
  — two-phase node-centric pruning retaining each edge at most once
  (disjunctive condition; Algorithms 4-5);
* :class:`ReciprocalCardinalityNodePruning` / :class:`ReciprocalWeightedNodePruning`
  — conjunctive variants keeping only reciprocally-linked pairs.

The cardinality-based schemes serve efficiency-intensive applications
(maximise precision, recall >= 0.8); the weight-based ones serve
effectiveness-intensive applications (recall >= 0.95).
"""

from repro.core.pruning.base import PruningAlgorithm, PruningRun
from repro.core.pruning.edge_centric import (
    CardinalityEdgePruning,
    WeightedEdgePruning,
)
from repro.core.pruning.node_centric import (
    CardinalityNodePruning,
    WeightedNodePruning,
    node_criteria,
)
from repro.core.pruning.reciprocal import (
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
)
from repro.core.pruning.redefined import (
    RedefinedCardinalityNodePruning,
    RedefinedWeightedNodePruning,
    key_retention,
    threshold_retention,
)

#: Registry keyed by the acronyms used throughout the paper and this library.
PRUNING_ALGORITHMS: dict[str, type[PruningAlgorithm]] = {
    "CEP": CardinalityEdgePruning,
    "CNP": CardinalityNodePruning,
    "WEP": WeightedEdgePruning,
    "WNP": WeightedNodePruning,
    "ReCNP": RedefinedCardinalityNodePruning,
    "ReWNP": RedefinedWeightedNodePruning,
    "RcCNP": ReciprocalCardinalityNodePruning,
    "RcWNP": ReciprocalWeightedNodePruning,
}

__all__ = [
    "PRUNING_ALGORITHMS",
    "CardinalityEdgePruning",
    "CardinalityNodePruning",
    "PruningAlgorithm",
    "PruningRun",
    "ReciprocalCardinalityNodePruning",
    "ReciprocalWeightedNodePruning",
    "RedefinedCardinalityNodePruning",
    "RedefinedWeightedNodePruning",
    "WeightedEdgePruning",
    "WeightedNodePruning",
    "key_retention",
    "node_criteria",
    "threshold_retention",
]
