"""Numpy-vectorized edge weighting backend.

A third implementation of the :class:`~repro.core.edge_weighting.EdgeWeighting`
interface, beyond the paper's Algorithm 2 (original) and Algorithm 3
(optimized): the per-node ScanCount is replaced by array operations —
gather the co-occurrence arrays of the node's blocks straight out of the
Entity Index's block→member CSR, count the shared blocks (and ARCS sums) in
C, and evaluate the weighting scheme as a numpy expression
(:meth:`WeightingScheme.weight_array`).

Initialisation is O(1) beyond the Entity Index build: the per-entity block
counts are the CSR ``indptr`` diff and the block member arrays are shared
CSR views, so no per-block or per-entity Python loop runs.

It computes exactly the same weighted graph as the other two backends, bit
for bit (the test suite asserts it). Its bulk path,
:meth:`~repro.core.edge_weighting.EdgeWeighting.neighborhood_batch`, is the
one Algorithm 3's backend inherits too; the two differ only in their
per-node and per-edge paths. Each segment of a batch is bit-identical to
:meth:`VectorizedEdgeWeighting.weighted_neighborhood` on that entity: both
list the neighbours ascending and sum the ARCS terms in gather order, and
the schemes are element-wise.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.edge_weighting import (
    Edge,
    EdgeWeighting,
    Neighborhood,
    NeighborhoodArrays,
)
from repro.core.weights import WeightingScheme
from repro.datamodel.blocks import BlockCollection


class VectorizedEdgeWeighting(EdgeWeighting):
    """Array-based neighbourhood scans over the implicit blocking graph."""

    def __init__(
        self, blocks: BlockCollection, scheme: "str | WeightingScheme"
    ) -> None:
        super().__init__(blocks, scheme)
        self._init_shared_state()

    def _init_shared_state(self) -> None:
        self._inverse_cardinalities = self.index.inverse_cardinality_array

    def _epoch_invalidated(self) -> None:
        # The statistic view is index-sized; a mutation (or compaction) may
        # have reallocated it, so re-read it through the index.
        self._inverse_cardinalities = self.index.inverse_cardinality_array

    # -- core scan ----------------------------------------------------------

    def _cooccurrence_arrays(self, entity: int) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated co-occurring ids and the matching block positions.

        The multi-range CSR gather lives on the index
        (:meth:`EntityIndex.cooccurrence_arrays`), so mutable delta indexes
        answer the same query with their overlay applied.
        """
        return self.index.cooccurrence_arrays(entity)

    def _neighborhood_stats(
        self, entity: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct ``(neighbors, common_counts, arcs_sums)`` arrays.

        Schemes without an ARCS term count runs of one sorted copy; only
        ARCS pays for ``np.unique``'s inverse, which ``bincount`` needs to
        sum ``1/||b||`` in gather order.
        """
        ids, block_positions = self._cooccurrence_arrays(entity)
        if ids.size == 0:
            empty_float = np.empty(0, dtype=np.float64)
            return ids, np.empty(0, dtype=np.int64), empty_float
        if self.scheme.uses_arcs_sum:
            neighbors, inverse, counts = np.unique(
                ids, return_inverse=True, return_counts=True
            )
            arcs = np.bincount(
                inverse,
                weights=self._inverse_cardinalities[block_positions],
                minlength=len(neighbors),
            )
            return neighbors, counts, arcs
        ordered = np.sort(ids)
        # Run boundaries: each distinct id's first position, then the end.
        boundary = np.empty(ordered.size + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:-1])
        edges = boundary.nonzero()[0]
        counts = edges[1:] - edges[:-1]
        return (
            ordered[edges[:-1]],
            counts,
            np.zeros(counts.size, dtype=np.float64),
        )

    def _weights_for(
        self, entity: int, neighbors: np.ndarray, counts: np.ndarray, arcs: np.ndarray
    ) -> np.ndarray:
        owners = np.full(neighbors.size, entity, dtype=np.int64)
        return self._batch_weights(owners, neighbors, counts, arcs)

    # -- EdgeWeighting interface ---------------------------------------------

    def neighborhood_arrays(self, entity: int) -> NeighborhoodArrays:
        """CSR-native bulk neighbourhood — no per-edge Python objects."""
        self._prepare_scheme_inputs()
        neighbors, counts, arcs = self._neighborhood_stats(entity)
        if neighbors.size == 0:
            return neighbors, np.empty(0, dtype=np.float64)
        return neighbors, self._weights_for(entity, neighbors, counts, arcs)

    def weighted_neighborhood(
        self, entity: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(neighbors, common_counts, weights)`` for one node.

        The incremental resolver's query surface: like
        :meth:`neighborhood_arrays` but keeping the shared-block counts,
        which streaming candidates report alongside the weight.
        """
        self._prepare_scheme_inputs()
        neighbors, counts, arcs = self._neighborhood_stats(entity)
        if neighbors.size == 0:
            return neighbors, counts, np.empty(0, dtype=np.float64)
        return neighbors, counts, self._weights_for(entity, neighbors, counts, arcs)

    def neighborhood(self, entity: int) -> Neighborhood:
        neighbors, weights = self.neighborhood_arrays(entity)
        if neighbors.size == 0:
            return []
        return list(zip(neighbors.tolist(), weights.tolist()))

    def iter_edges(self) -> Iterator[Edge]:
        for batch in self.iter_edge_batches():
            yield from batch.iter_edges()

    def count_neighbors(self, entity: int) -> int:
        ids, _ = self._cooccurrence_arrays(entity)
        return len(np.unique(ids)) if ids.size else 0
