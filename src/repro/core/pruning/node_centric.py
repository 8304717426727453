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


#: Entities per :meth:`~repro.core.edge_weighting.EdgeWeighting.neighborhood_batch`
#: call in :func:`node_criteria`. Purely a memory/amortisation knob — like
#: every chunk size in the stack, batch boundaries never affect results.
NODE_CRITERIA_BATCH = 512


def node_criteria(
    weighting: EdgeWeighting,
    entities: "list[int]",
    k: int,
    chunk_size: int | None = None,
):
    """Per-node pruning criteria for a node subset, via the batch kernels.

    Yields ``(entity, topk_neighbors, mean)`` for every entity of
    ``entities`` with a non-empty neighbourhood: the CNP top-k neighbor ids
    (ascending — the order :func:`topk_per_segment` emits within a
    segment, so CNP exports reproduce the batch pair order) and the WNP
    mean weight. Entities with empty neighbourhoods are skipped, exactly
    as the batch algorithms skip them.

    This is the re-pruning entry point of the incremental resolver: at
    export it re-derives criteria only for the stale nodes, with the same
    selection and tie-breaking as a full batch pass. Each run of
    ``chunk_size`` entities (a node count, :data:`NODE_CRITERIA_BATCH` by
    default) is served by one ``neighborhood_batch`` call.
    """
    nodes = max(1, chunk_size) if chunk_size else NODE_CRITERIA_BATCH
    for start in range(0, len(entities), nodes):
        group = weighting.neighborhood_batch(
            entities[start : start + nodes]
        ).node_group()
        if not group.entities.size:
            continue
        means = segment_means(group)
        selected, segments = topk_per_segment(group, k)
        picked = np.bincount(segments, minlength=group.entities.size)
        offsets = np.zeros(group.entities.size + 1, dtype=np.int64)
        np.cumsum(picked, out=offsets[1:])
        neighbors = group.neighbors[selected]
        for position, entity in enumerate(group.entities.tolist()):
            yield (
                int(entity),
                neighbors[offsets[position] : offsets[position + 1]],
                float(means[position]),
            )


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
