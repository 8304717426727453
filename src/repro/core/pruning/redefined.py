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

Phase 1 has two equivalent representations: the dict-of-sets / dict-of-floats
form consumed by the per-edge shims and the parallel executor's chunk tasks,
and the flat array form (sorted directed-pair keys, per-entity threshold
array) consumed by the batched phase 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.edge_stream import (
    directed_pair_keys,
    keys_contain,
    neighborhood_mean,
    segment_means,
    topk_per_segment,
)
from repro.core.edge_weighting import EdgeWeighting, weight_and_prune_chunks
from repro.core.pruning.base import PruningAlgorithm, cardinality_node_threshold
from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.sinks import ComparisonSink
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


def nearest_neighbor_keys(
    weighting: EdgeWeighting,
    k: int,
    chunk_size: int | None = None,
    entities: "list[int] | None" = None,
) -> np.ndarray:
    """Array form of phase 1 CNP: sorted directed ``entity -> neighbor`` keys.

    Selects exactly the same per-node top-k as :func:`nearest_neighbor_sets`
    (grouped segment top-k with the heap's tie rule) and encodes each
    retained directed pair as one sortable int64 key for
    ``np.searchsorted`` lookups.

    ``entities`` restricts the pass to a node subset (dirty-neighborhood
    re-pruning on a mutable index); the default covers every graph node.
    """
    num_entities = weighting.num_entities
    chunks: list[np.ndarray] = []
    for batch in weighting.neighborhood_chunks(
        weighting.nodes() if entities is None else entities, chunk_size
    ):
        group = batch.node_group()
        selected, segments = topk_per_segment(group, k)
        if selected.size:
            chunks.append(
                directed_pair_keys(
                    group.entities[segments],
                    group.neighbors[selected],
                    num_entities,
                )
            )
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(chunks))


def neighborhood_thresholds(weighting: EdgeWeighting) -> dict[int, float]:
    """Phase 1 of (redefined/reciprocal) WNP: mean weight per neighbourhood."""
    thresholds: dict[int, float] = {}
    for entity in weighting.nodes():
        _, weights = weighting.neighborhood_arrays(entity)
        if weights.size:
            thresholds[entity] = neighborhood_mean(weights)
    return thresholds


def neighborhood_threshold_array(
    weighting: EdgeWeighting,
    chunk_size: int | None = None,
    entities: "list[int] | None" = None,
) -> np.ndarray:
    """Array form of phase 1 WNP: per-entity mean weight, ``+inf`` when the
    entity has no neighbourhood (so the missing-threshold comparison always
    fails, as with the dict's ``.get(entity, inf)``).

    ``entities`` restricts the pass to a node subset (dirty-neighborhood
    re-pruning on a mutable index); entities outside the subset keep the
    ``+inf`` default.
    """
    thresholds = np.full(weighting.num_entities, np.inf, dtype=np.float64)
    for batch in weighting.neighborhood_chunks(
        weighting.nodes() if entities is None else entities, chunk_size
    ):
        group = batch.node_group()
        thresholds[group.entities] = segment_means(group)
    return thresholds


def stream_key_retention(
    weighting: EdgeWeighting,
    keys: np.ndarray,
    conjunctive: bool,
    sink: ComparisonSink,
    chunk_size: int | None = None,
) -> None:
    """Phase 2 of (redefined/reciprocal) CNP: stream every distinct edge and
    retain it when its directed keys appear in ``keys`` for either endpoint
    (disjunctive) or both (conjunctive). Shared by the batch algorithms and
    the incremental resolver's full-export path."""
    num_entities = weighting.num_entities
    for batch in weighting.iter_edge_batches(chunk_size):
        in_left = keys_contain(
            keys, directed_pair_keys(batch.sources, batch.targets, num_entities)
        )
        in_right = keys_contain(
            keys, directed_pair_keys(batch.targets, batch.sources, num_entities)
        )
        keep = (in_left & in_right) if conjunctive else (in_left | in_right)
        sink.append(batch.sources[keep], batch.targets[keep])


def stream_threshold_retention(
    weighting: EdgeWeighting,
    thresholds: np.ndarray,
    conjunctive: bool,
    sink: ComparisonSink,
    chunk_size: int | None = None,
) -> None:
    """Phase 2 of (redefined/reciprocal) WNP: stream every distinct edge and
    retain it when its weight reaches the per-entity threshold of either
    endpoint (disjunctive) or both (conjunctive)."""
    for batch in weighting.iter_edge_batches(chunk_size):
        over_left = batch.weights >= thresholds[batch.sources]
        over_right = batch.weights >= thresholds[batch.targets]
        keep = (
            (over_left & over_right)
            if conjunctive
            else (over_left | over_right)
        )
        sink.append(batch.sources[keep], batch.targets[keep])


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

    def _prune_into(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        if self._use_fused_path(weighting, sink):
            self._prune_fused(weighting, sink)
            return
        keys = nearest_neighbor_keys(
            weighting, self._threshold(weighting), self.chunk_size
        )
        stream_key_retention(
            weighting, keys, self.conjunctive, sink, self.chunk_size
        )

    def _prune_fused(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        """Single-gather variant: phase 1 and phase 2 share the chunks.

        Each neighbourhood is weighted once into a
        :class:`~repro.core.edge_stream.FusedChunk`; the top-k selection runs
        on the full segments and the phase-2 barrier (the complete key set)
        is honoured by caching the chunks' emitted slices rather than
        re-streaming the graph. Same retained pairs, same emission order.
        """
        k = self._threshold(weighting)
        num_entities = weighting.num_entities
        chunks = list(
            weight_and_prune_chunks(weighting, weighting.nodes(), self.chunk_size)
        )
        key_parts: list[np.ndarray] = []
        for fused in chunks:
            selected, segments = topk_per_segment(fused.group, k)
            if selected.size:
                key_parts.append(
                    directed_pair_keys(
                        fused.group.entities[segments],
                        fused.group.neighbors[selected],
                        num_entities,
                    )
                )
        keys = (
            np.sort(np.concatenate(key_parts))
            if key_parts
            else np.empty(0, dtype=np.int64)
        )
        for fused in chunks:
            batch = fused.emitted
            in_left = keys_contain(
                keys, directed_pair_keys(batch.sources, batch.targets, num_entities)
            )
            in_right = keys_contain(
                keys, directed_pair_keys(batch.targets, batch.sources, num_entities)
            )
            keep = (in_left & in_right) if self.conjunctive else (in_left | in_right)
            sink.append(batch.sources[keep], batch.targets[keep])

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

    def _prune_into(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        if self._use_fused_path(weighting, sink):
            self._prune_fused(weighting, sink)
            return
        thresholds = neighborhood_threshold_array(weighting, self.chunk_size)
        stream_threshold_retention(
            weighting, thresholds, self.conjunctive, sink, self.chunk_size
        )

    def _prune_fused(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        """Single-gather variant: per-node means and retention share chunks.

        ``segment_means`` over the cached full segments is bit-identical to
        :func:`neighborhood_threshold_array` (same per-segment reduction over
        the same values), so the retained set and order match the two-pass
        path exactly.
        """
        thresholds = np.full(weighting.num_entities, np.inf, dtype=np.float64)
        chunks = list(
            weight_and_prune_chunks(weighting, weighting.nodes(), self.chunk_size)
        )
        for fused in chunks:
            thresholds[fused.group.entities] = segment_means(fused.group)
        for fused in chunks:
            batch = fused.emitted
            over_left = batch.weights >= thresholds[batch.sources]
            over_right = batch.weights >= thresholds[batch.targets]
            keep = (
                (over_left & over_right)
                if self.conjunctive
                else (over_left | over_right)
            )
            sink.append(batch.sources[keep], batch.targets[keep])

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
