"""Redefined node-centric pruning (paper Algorithms 4 and 5).

The original CNP/WNP emit an edge from *each* endpoint that finds it
important, producing redundant comparisons. Rather than bolting Comparison
Propagation onto their output (an extra O(2·BPE·||B'||) pass), the redefined
algorithms integrate it:

* **phase 1** (node-centric) walks every node neighbourhood and derives the
  local pruning criterion — the top-k sorted stack for CNP, the mean weight
  for WNP;
* **phase 2** (edge-centric) streams every distinct edge once and retains it
  if it satisfies the criterion of *either* endpoint (disjunctive
  condition).

Each edge is thus kept at most once: same recall as the originals, no
redundant comparisons — on average 30% fewer comparisons for free.

Both phases are chunk steps (:class:`~repro.core.pruning.base.PruningRun`):
phase 1 derives the criterion per node chunk, merged owner-side into a flat
array form (sorted directed-pair keys, per-entity threshold array); phase 2
is one retention mask per :class:`~repro.core.edge_stream.EdgeBatch`
(:func:`key_retention`, :func:`threshold_retention`), shared with the
incremental resolver's exports. The per-edge references keep the
dict-of-sets / dict-of-floats form of phase 1.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.edge_stream import (
    EdgeBatch,
    FusedChunk,
    directed_pair_keys,
    keys_contain,
    neighborhood_mean,
    segment_means,
    topk_per_segment,
)
from repro.core.edge_weighting import EdgeWeighting
from repro.core.pruning.base import (
    PruningAlgorithm,
    PruningRun,
    cardinality_node_threshold,
)
from repro.datamodel.blocks import ComparisonCollection
from repro.utils.topk import TopKHeap

Comparison = tuple[int, int]


def nearest_neighbor_sets(
    weighting: EdgeWeighting, k: int
) -> dict[int, set[int]]:
    """Phase 1 of (redefined/reciprocal) CNP: top-k neighbours per node.

    Returns ``{entity: set of its k nearest neighbours}`` with the same
    deterministic tie-breaking as the original CNP.
    """
    retained: dict[int, set[int]] = {}
    for entity, neighborhood in weighting.iter_neighborhoods():
        heap: TopKHeap[int] = TopKHeap(k)
        for other, weight in neighborhood:
            heap.push(weight, other)
        retained[entity] = heap.items()
    return retained


def neighborhood_thresholds(weighting: EdgeWeighting) -> dict[int, float]:
    """Phase 1 of (redefined/reciprocal) WNP: mean weight per neighbourhood."""
    thresholds: dict[int, float] = {}
    for entity in weighting.nodes():
        _, weights = weighting.neighborhood_arrays(entity)
        if weights.size:
            thresholds[entity] = neighborhood_mean(weights)
    return thresholds


def top_k_keys(
    chunks: "Iterable[FusedChunk]", k: int, num_entities: int
) -> "list[np.ndarray]":
    """Phase 1 step of (redefined/reciprocal) CNP: each chunk's per-node
    top-k as directed ``entity -> neighbor`` keys.

    Selects exactly the same per-node top-k as :func:`nearest_neighbor_sets`
    (grouped segment top-k with the heap's tie rule); each retained
    directed pair becomes one sortable int64 key.
    """
    keys = []
    for chunk in chunks:
        group = chunk.group
        selected, segments = topk_per_segment(group, k)
        keys.append(
            directed_pair_keys(
                group.entities[segments], group.neighbors[selected], num_entities
            )
        )
    return keys


def sorted_keys(parts: "list[list[np.ndarray]]") -> np.ndarray:
    """Phase 1 merge of (redefined/reciprocal) CNP: one sorted key array
    for ``np.searchsorted`` lookups."""
    keys = [array for part in parts for array in part]
    if not keys:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(keys))


def neighborhood_means(
    chunks: "Iterable[FusedChunk]",
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Phase 1 step of (redefined/reciprocal) WNP: each chunk's
    ``(entities, mean weights)``."""
    return [(chunk.group.entities, segment_means(chunk.group)) for chunk in chunks]


def threshold_array(
    num_entities: int, parts: "list[list[tuple[np.ndarray, np.ndarray]]]"
) -> np.ndarray:
    """Phase 1 merge of (redefined/reciprocal) WNP: per-entity mean weight,
    ``+inf`` when the entity has no neighbourhood (so the missing-threshold
    comparison always fails, as with the dict's ``.get(entity, inf)``)."""
    thresholds = np.full(num_entities, np.inf, dtype=np.float64)
    for part in parts:
        for entities, means in part:
            thresholds[entities] = means
    return thresholds


def key_retention(
    keys: np.ndarray, conjunctive: bool, num_entities: int
) -> "Callable[[EdgeBatch], np.ndarray]":
    """Phase 2 step of (redefined/reciprocal) CNP: retain an edge when its
    directed keys appear in ``keys`` for either endpoint (disjunctive) or
    both (conjunctive). Shared by the batch algorithms and the incremental
    resolver's full-export path."""

    def retain(batch: EdgeBatch) -> np.ndarray:
        in_left = keys_contain(
            keys, directed_pair_keys(batch.sources, batch.targets, num_entities)
        )
        in_right = keys_contain(
            keys, directed_pair_keys(batch.targets, batch.sources, num_entities)
        )
        return (in_left & in_right) if conjunctive else (in_left | in_right)

    return retain


def threshold_retention(
    thresholds: np.ndarray, conjunctive: bool
) -> "Callable[[EdgeBatch], np.ndarray]":
    """Phase 2 step of (redefined/reciprocal) WNP: retain an edge when its
    weight reaches the per-entity threshold of either endpoint
    (disjunctive) or both (conjunctive)."""

    def retain(batch: EdgeBatch) -> np.ndarray:
        over_left = batch.weights >= thresholds[batch.sources]
        over_right = batch.weights >= thresholds[batch.targets]
        return (over_left & over_right) if conjunctive else (over_left | over_right)

    return retain


class RedefinedCardinalityNodePruning(PruningAlgorithm):
    """Redefined CNP (Algorithm 4): disjunctive top-k retention."""

    name = "ReCNP"
    #: Subclasses flip this to get the conjunctive (reciprocal) behaviour.
    conjunctive = False

    def __init__(self, k: int | None = None) -> None:
        if k is not None and k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def _threshold(self, weighting: EdgeWeighting) -> int:
        if self.k is not None:
            return self.k
        return cardinality_node_threshold(weighting.index)

    def steps(self, run: PruningRun) -> None:
        k = self._threshold(run.weighting)
        num_entities = run.weighting.num_entities
        keys = run.criteria(
            lambda chunks: top_k_keys(chunks, k, num_entities), sorted_keys
        )
        run.retain(key_retention(keys, self.conjunctive, num_entities))

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        nearest = nearest_neighbor_sets(weighting, self._threshold(weighting))
        empty: set[int] = set()
        retained: list[Comparison] = []
        for left, right, _ in weighting.iter_edges():
            in_left = right in nearest.get(left, empty)
            in_right = left in nearest.get(right, empty)
            keep = (in_left and in_right) if self.conjunctive else (in_left or in_right)
            if keep:
                retained.append((left, right))
        return ComparisonCollection(retained, weighting.num_entities)


class RedefinedWeightedNodePruning(PruningAlgorithm):
    """Redefined WNP (Algorithm 5): disjunctive local-threshold retention."""

    name = "ReWNP"
    conjunctive = False

    def steps(self, run: PruningRun) -> None:
        thresholds = run.criteria(
            neighborhood_means,
            lambda parts: threshold_array(run.weighting.num_entities, parts),
        )
        run.retain(threshold_retention(thresholds, self.conjunctive))

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        thresholds = neighborhood_thresholds(weighting)
        infinity = float("inf")
        retained: list[Comparison] = []
        for left, right, weight in weighting.iter_edges():
            over_left = weight >= thresholds.get(left, infinity)
            over_right = weight >= thresholds.get(right, infinity)
            keep = (
                (over_left and over_right)
                if self.conjunctive
                else (over_left or over_right)
            )
            if keep:
                retained.append((left, right))
        return ComparisonCollection(retained, weighting.num_entities)
