"""Edge-centric pruning: retain the globally best edges.

Both algorithms stream the distinct edges of the implicit blocking graph and
keep those passing a *global* criterion, so their output never contains
redundant comparisons. They cannot, however, guarantee that every entity
keeps at least one edge — the reason the paper's new algorithms build on the
node-centric family instead.

Their steps consume the graph in :class:`~repro.core.edge_stream.EdgeBatch`
chunks: CEP folds every span's edges into a local top-k and merges those
owner-side; WEP merges per-node weight sums into the global mean, then
retains against it. ``prune_per_edge`` keeps the historical tuple-at-a-time
loop and retains exactly the same comparisons.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.edge_stream import EdgeBatch, TopKEdgeBuffer
from repro.core.edge_weighting import EdgeWeighting
from repro.core.pruning.base import (
    PruningAlgorithm,
    PruningRun,
    cardinality_edge_threshold,
    emitted_weight_sums,
    mean_edge_weight,
    mean_of_sums,
)
from repro.datamodel.blocks import ComparisonCollection
from repro.utils.topk import TopKHeap


class CardinalityEdgePruning(PruningAlgorithm):
    """CEP: keep the top-K weighted edges of the whole graph.

    ``K = floor(sum(|b|)/2)`` by default (the paper's configuration); pass
    ``k`` to override. Weight ties are broken by the canonical edge ids so
    the retained set is deterministic.
    """

    name = "CEP"

    def __init__(self, k: int | None = None) -> None:
        if k is not None and k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def _threshold(self, weighting: EdgeWeighting) -> int:
        if self.k is not None:
            return self.k
        return cardinality_edge_threshold(weighting.index)

    def steps(self, run: PruningRun) -> None:
        k = self._threshold(run.weighting)

        def top_k(batches: Iterable[EdgeBatch]) -> TopKEdgeBuffer:
            buffer = TopKEdgeBuffer(k)
            for batch in batches:
                buffer.push(batch)
            return buffer

        # The global top-K is only known once every local top-k is merged,
        # so CEP's sink traffic is a single bounded append (K pairs at most).
        run.sink.append_pairs(
            run.reduce(
                lambda batches: top_k(batches).top(),
                lambda tops: top_k(tops).pairs(),
            )
        )

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        heap: TopKHeap[tuple[int, int]] = TopKHeap(self._threshold(weighting))
        for left, right, weight in weighting.iter_edges():
            heap.push(weight, (left, right))
        retained = sorted(heap.items())
        return ComparisonCollection(retained, weighting.num_entities)


class WeightedEdgePruning(PruningAlgorithm):
    """WEP: keep the edges at or above the global mean weight.

    Two passes over the edge stream: the first averages the weights (the
    threshold can only be known a-posteriori — the reason Prefix Filtering
    does not apply, paper Section 4.2), the second retains.
    """

    name = "WEP"

    def __init__(self, threshold: float | None = None) -> None:
        self.threshold = threshold

    def _resolve_threshold(self, weighting: EdgeWeighting) -> float:
        if self.threshold is not None:
            return self.threshold
        return mean_edge_weight(weighting)

    def steps(self, run: PruningRun) -> None:
        threshold = self.threshold
        if threshold is None:
            threshold = run.criteria(
                emitted_weight_sums, mean_of_sums, emitters=True
            )
        run.retain(lambda batch: batch.weights >= threshold)

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        threshold = self._resolve_threshold(weighting)
        retained = [
            (left, right)
            for left, right, weight in weighting.iter_edges()
            if weight >= threshold
        ]
        return ComparisonCollection(retained, weighting.num_entities)
