"""Edge-centric pruning: retain the globally best edges.

Both algorithms stream the distinct edges of the implicit blocking graph and
keep those passing a *global* criterion, so their output never contains
redundant comparisons. They cannot, however, guarantee that every entity
keeps at least one edge — the reason the paper's new algorithms build on the
node-centric family instead.

The primary :meth:`~repro.core.pruning.base.PruningAlgorithm.prune` path
consumes the graph in :class:`~repro.core.edge_stream.EdgeBatch` chunks;
``prune_per_edge`` keeps the historical tuple-at-a-time loop and retains
exactly the same comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.edge_stream import TopKEdgeBuffer
from repro.core.edge_weighting import EdgeWeighting, weight_and_prune_chunks
from repro.core.pruning.base import (
    PruningAlgorithm,
    cardinality_edge_threshold,
    mean_edge_weight,
)
from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.sinks import ComparisonSink
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

    def _prune_into(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        buffer = TopKEdgeBuffer(self._threshold(weighting))
        for batch in weighting.iter_edge_batches(self.chunk_size):
            buffer.push(batch)
        # The global top-K is only known once the stream is exhausted, so
        # CEP's sink traffic is a single bounded append (K pairs at most).
        sink.append_pairs(buffer.pairs())

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

    def _prune_into(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        if self.threshold is None and self._use_fused_path(weighting, sink):
            self._prune_fused(weighting, sink)
            return
        threshold = self._resolve_threshold(weighting)
        for batch in weighting.iter_edge_batches(self.chunk_size):
            keep = batch.weights >= threshold
            sink.append(batch.sources[keep], batch.targets[keep])

    def _prune_fused(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        """Single-gather variant: the mean and the retention share chunks.

        The global mean keeps its barrier (it is only known a-posteriori)
        but is reduced from the cached chunks' per-node sums — the same
        node-ordered array :func:`~repro.core.pruning.base.mean_edge_weight`
        builds, so the threshold is bit-identical to the two-pass path.
        """
        chunks = list(
            weight_and_prune_chunks(weighting, weighting.nodes(), self.chunk_size)
        )
        sums: list[np.ndarray] = []
        count = 0
        for fused in chunks:
            node_sums, edges = fused.emitted_node_sums()
            if edges:
                sums.append(node_sums)
                count += edges
        threshold = (
            float(np.sum(np.concatenate(sums))) / count if count else 0.0
        )
        for fused in chunks:
            batch = fused.emitted
            keep = batch.weights >= threshold
            sink.append(batch.sources[keep], batch.targets[keep])

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        threshold = self._resolve_threshold(weighting)
        retained = [
            (left, right)
            for left, right, weight in weighting.iter_edges()
            if weight >= threshold
        ]
        return ComparisonCollection(retained, weighting.num_entities)
