"""Original node-centric pruning (CNP, WNP).

Both iterate over every node of the blocking graph and retain the locally
best incident edges. The retained edges are conceptually *directed*
(Figure 5a): an edge important for both endpoints is kept twice, producing
redundant comparisons in the restructured blocks — the inefficiency the
paper's redefined algorithms remove. The outputs here faithfully preserve
those repeats so that ``||B'||`` and PQ match the original algorithms'
published behaviour.

Each algorithm is one per-node-chunk step
(:meth:`~repro.core.pruning.base.PruningRun.select`) that resolves the
local criterion with a handful of big-array operations per chunk (top-k
via :func:`~repro.core.edge_stream.topk_per_segment`, local means via one
segmented reduction) and returns the chunk's retained pairs;
``prune_per_edge`` keeps the tuple-at-a-time loop with the same retained
comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.edge_stream import (
    NodeGroup,
    neighborhood_mean,
    segment_means,
    topk_per_segment,
)
from repro.core.edge_weighting import EdgeWeighting
from repro.core.pruning.base import (
    Pairs,
    PruningAlgorithm,
    PruningRun,
    cardinality_node_threshold,
)
from repro.datamodel.blocks import ComparisonCollection
from repro.utils.topk import TopKHeap

Comparison = tuple[int, int]


def _canonical(entity: int, others: "list[int]") -> "list[Comparison]":
    return [
        (entity, other) if entity < other else (other, entity) for other in others
    ]


def _canonical_pairs(entities: np.ndarray, others: np.ndarray) -> Pairs:
    """Directed ``entity -> other`` edges as canonical ``(low, high)`` pairs."""
    return np.minimum(entities, others), np.maximum(entities, others)


class CardinalityNodePruning(PruningAlgorithm):
    """CNP: keep the top-k weighted edges of every node neighbourhood.

    ``k = floor(sum(|b|)/|E| - 1)`` by default (the paper's configuration).
    """

    name = "CNP"

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

        def top_k(group: NodeGroup) -> Pairs:
            selected, segments = topk_per_segment(group, k)
            return _canonical_pairs(
                group.entities[segments], group.neighbors[selected]
            )

        run.select(top_k)

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        k = self._threshold(weighting)
        retained: list[Comparison] = []
        for entity, neighborhood in weighting.iter_neighborhoods():
            heap: TopKHeap[int] = TopKHeap(k)
            for other, weight in neighborhood:
                heap.push(weight, other)
            retained.extend(_canonical(entity, sorted(heap.items())))
        return ComparisonCollection(retained, weighting.num_entities)


def _over_mean(group: NodeGroup) -> Pairs:
    """WNP's step: each node's edges at or above its neighbourhood mean."""
    counts = group.counts
    keep = group.weights >= np.repeat(segment_means(group), counts)
    return _canonical_pairs(
        np.repeat(group.entities, counts)[keep], group.neighbors[keep]
    )


class WeightedNodePruning(PruningAlgorithm):
    """WNP: keep edges at or above their neighbourhood's mean weight.

    The local threshold of node ``v_i`` is the average weight of its
    incident edges; each node retains its qualifying edges independently,
    so an edge can be kept from both sides (a redundant comparison).
    """

    name = "WNP"

    def steps(self, run: PruningRun) -> None:
        run.select(_over_mean)

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        retained: list[Comparison] = []
        for entity, neighborhood in weighting.iter_neighborhoods():
            if not neighborhood:
                continue
            threshold = neighborhood_mean(
                np.fromiter(
                    (weight for _, weight in neighborhood),
                    dtype=np.float64,
                    count=len(neighborhood),
                )
            )
            retained.extend(
                _canonical(
                    entity,
                    [other for other, weight in neighborhood if weight >= threshold],
                )
            )
        return ComparisonCollection(retained, weighting.num_entities)
