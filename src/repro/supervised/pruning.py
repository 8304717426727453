"""Supervised pruning: match probabilities as edge weights.

:class:`ClassifierScheme` weighs every edge by a trained classifier's match
probability, so every core pruning algorithm runs on probabilities —
serially, on the parallel executor's threads or spilled — as Generalized
Supervised Meta-blocking (arXiv 2204.08801) runs probabilistic WEP, WNP,
CEP, CNP, RCNP and RWNP. :class:`SupervisedMetaBlocking` names three of
them:

* ``mode="wep"`` — WEP with ``probability_threshold`` as its threshold
  (the decision boundary instead of the mean weight);
* ``mode="cep"`` — CEP: the top-K most probable edges,
  ``K = floor(sum(|b|)/2)``;
* ``mode="cnp"`` — redefined CNP: the top-k most probable edges per node
  neighbourhood, retained at most once.
"""

from __future__ import annotations

import random
from typing import Iterable

import numpy as np

from repro.core.edge_weighting import OptimizedEdgeWeighting
from repro.core.pruning import (
    CardinalityEdgePruning,
    PruningAlgorithm,
    RedefinedCardinalityNodePruning,
    WeightedEdgePruning,
)
from repro.core.weights import WeightingScheme
from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.groundtruth import DuplicateSet
from repro.supervised.classifier import LogisticRegressionClassifier
from repro.supervised.features import EdgeFeatureExtractor, edge_features

LabelledEdge = tuple[int, int, bool]


class ClassifierScheme(WeightingScheme):
    """The weight of an edge is ``model.predict_proba`` of its features.

    The features are computed from the statistics every backend hands the
    scheme; parallel runs share the model, which they only read. Batch-only:
    the streaming resolver's write-ahead log could not record the model.
    """

    name = "classifier"
    uses_arcs_sum = True
    uses_total_blocks = True
    streamable = False

    def __init__(self, model: LogisticRegressionClassifier) -> None:
        if not model.is_fitted:
            raise ValueError("model must be fitted before weighting")
        self.model = model

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        return self.model.predict_proba(
            edge_features(common_blocks, arcs_sum, blocks_i, blocks_j, total_blocks)
        )

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        features = edge_features(
            [common_blocks], [arcs_sum], [blocks_i], [blocks_j], total_blocks
        )
        return float(self.model.predict_proba(features)[0])


def training_edges(
    extractor: EdgeFeatureExtractor, labelled: Iterable[LabelledEdge]
) -> tuple[np.ndarray, np.ndarray]:
    """Build (X, y) from labelled entity pairs.

    Pairs need not be graph edges — disjoint pairs simply get zero
    co-occurrence features, which is itself informative.
    """
    rows = []
    labels = []
    for left, right, is_match in labelled:
        rows.append(extractor.features_for(left, right))
        labels.append(1.0 if is_match else 0.0)
    if not rows:
        raise ValueError("no labelled edges supplied")
    return np.vstack(rows), np.asarray(labels)


def train_from_ground_truth(
    extractor: EdgeFeatureExtractor,
    ground_truth: DuplicateSet,
    num_negative: int | None = None,
    seed: int = 0,
) -> LogisticRegressionClassifier:
    """Benchmark helper: label edges with the gold standard and train.

    Positives are the gold pairs; negatives are a random sample of the
    graph's non-matching edges (default: as many as the positives), in the
    optimized backend's edge-stream order. In a real deployment the labels
    come from manual review — this helper exists so benchmarks and examples
    can demonstrate the ceiling.
    """
    positives = [(left, right, True) for left, right in ground_truth]
    if not positives:
        raise ValueError("ground truth is empty")
    wanted = num_negative if num_negative is not None else len(positives)
    rng = random.Random(seed)
    reservoir: list[LabelledEdge] = []
    seen = 0
    # Only the pairs are read, so the cheapest scheme weighs them.
    graph = OptimizedEdgeWeighting._from_shared_index(extractor.index, "CBS")
    for batch in graph.iter_edge_batches():
        for left, right in zip(batch.sources.tolist(), batch.targets.tolist()):
            if ground_truth.is_match(left, right):
                continue
            seen += 1
            if len(reservoir) < wanted:
                reservoir.append((left, right, False))
            else:
                slot = rng.randrange(seen)
                if slot < wanted:
                    reservoir[slot] = (left, right, False)
    if not reservoir:
        raise ValueError("the blocking graph has no negative edges to sample")
    X, y = training_edges(extractor, positives + reservoir)
    return LogisticRegressionClassifier().fit(X, y)


class SupervisedMetaBlocking:
    """Prune a blocking graph with a trained edge classifier."""

    MODES = ("wep", "cep", "cnp")

    def __init__(
        self,
        model: LogisticRegressionClassifier,
        mode: str = "wep",
        probability_threshold: float = 0.5,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {self.MODES}")
        if not 0.0 < probability_threshold < 1.0:
            raise ValueError(
                f"probability_threshold must be in (0, 1), got "
                f"{probability_threshold}"
            )
        if not model.is_fitted:
            raise ValueError("model must be fitted before pruning")
        self.model = model
        self.mode = mode
        self.probability_threshold = probability_threshold

    def algorithm(self) -> PruningAlgorithm:
        """The core algorithm this mode runs on :class:`ClassifierScheme`."""
        if self.mode == "wep":
            return WeightedEdgePruning(threshold=self.probability_threshold)
        if self.mode == "cep":
            return CardinalityEdgePruning()
        return RedefinedCardinalityNodePruning()

    def prune(self, extractor: EdgeFeatureExtractor) -> ComparisonCollection:
        weighting = OptimizedEdgeWeighting._from_shared_index(
            extractor.index, ClassifierScheme(self.model)
        )
        return self.algorithm().prune(weighting)
