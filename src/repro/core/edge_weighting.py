"""Implicit blocking-graph construction and edge weighting.

The blocking graph of a voluminous collection (millions of nodes, billions
of edges) cannot be materialised; both backends below expose it *implicitly*
through the Entity Index, as the paper prescribes (Section 4.2):

* :class:`OriginalEdgeWeighting` — Algorithm 2. Iterates over every
  comparison of every block and evaluates the LeCoBI condition by merging
  the two entities' block lists; the per-comparison cost is O(2·BPE).
* :class:`OptimizedEdgeWeighting` — Algorithm 3 (contribution). Iterates
  over entities; a ScanCount-style pass over each entity's blocks counts the
  shared blocks with every co-occurring entity in O(1) per comparison, using
  two reusable arrays (``flags`` avoids clearing the counters between
  nodes).

Both backends implement the same :class:`EdgeWeighting` interface — node
neighbourhoods for the node-centric pruning algorithms and a distinct-edge
stream for the edge-centric ones — and produce *identical weights* (the
property-based tests assert this), so every pruning algorithm runs unchanged
on either.

Bulk consumers read whole node chunks through one method,
:meth:`EdgeWeighting.neighborhood_batch`. Both fast backends serve it from
one chunk-count kernel, :meth:`EdgeWeighting._count_chunk`: Algorithm 3's
ScanCount for a whole chunk at once, in numpy (one int64 sort groups the
chunk's ``(segment, neighbour)`` co-occurrence keys), then one
:meth:`~repro.core.weights.WeightingScheme.weight_array` call per chunk, so
no Python step runs per co-occurrence or per edge. The per-node ScanCount
above stays for ``neighborhood()``, ``iter_edges()`` and
``count_neighbors()``, and is the oracle the kernel is tested against.
:func:`weight_and_prune_chunks` derives each chunk's slice of the
distinct-edge stream from the same arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.edge_stream import (
    DEFAULT_CHUNK_SIZE,
    EdgeBatch,
    FusedChunk,
    NeighborhoodBatch,
)
from repro.core.weights import WeightingScheme, get_scheme
from repro.datamodel.blocks import BlockCollection

Edge = tuple[int, int, float]
Neighborhood = list[tuple[int, float]]
NeighborhoodArrays = tuple[np.ndarray, np.ndarray]


class EdgeWeighting(ABC):
    """Shared interface of the two weighting backends.

    Parameters
    ----------
    blocks:
        The input block collection. Its current order defines the block ids
        used by the LeCoBI condition; pass a collection sorted in processing
        order when that matters (any fixed order yields the same graph and
        the same weights).
    scheme:
        Weighting scheme instance or name (see :mod:`repro.core.weights`).
    """

    #: Whether :meth:`iter_edges` emits edges grouped by emitting node, in
    #: the same per-node order as :meth:`emitted_arrays`. Retention from
    #: cached node chunks (:class:`~repro.core.pruning.base.PruningRun`)
    #: relies on this to reproduce the stream's emission order exactly; the
    #: block-ordered original backend opts out and re-streams its edges.
    node_ordered_edge_stream: bool = True

    def __init__(
        self, blocks: BlockCollection, scheme: "str | WeightingScheme"
    ) -> None:
        self.blocks = blocks
        self.scheme = get_scheme(scheme)
        self.index = EntityIndex(blocks)
        self._degrees: list[int] | None = None
        self._degrees_array: np.ndarray | None = None
        self._total_edges: int | None = None
        self._epoch = self.index.epoch

    @property
    def num_entities(self) -> int:
        """``|E|`` — read through to the index (mutable indexes grow)."""
        return self.index.num_entities

    @property
    def total_blocks(self) -> int:
        """``|B|`` — read through to the index (mutable indexes grow)."""
        return self.index.num_blocks

    @classmethod
    def _from_shared_index(
        cls, index: EntityIndex, scheme: "str | WeightingScheme"
    ) -> "EdgeWeighting":
        """Reconstruct a backend around an already-built Entity Index,
        without a block collection.

        This is how the parallel executor gives each pool thread its own
        clone (and how the incremental resolver weights over its live
        :class:`~repro.blockprocessing.delta_index.DeltaEntityIndex`):
        ``index`` is read, never copied, and everything the chunk tasks
        touch (neighbourhood scans, emitted-edge streams, degree counts)
        runs off its arrays alone. ``blocks`` is intentionally absent —
        threshold resolution and edge-centric full iteration stay on the
        owner side.
        """
        self = cls.__new__(cls)
        self.blocks = None  # type: ignore[assignment]
        self.scheme = get_scheme(scheme)
        self.index = index
        self._degrees = None
        self._degrees_array = None
        self._total_edges = None
        self._epoch = getattr(index, "epoch", 0)
        self._init_shared_state()
        return self

    def _init_shared_state(self) -> None:
        """Backend-specific extras for :meth:`_from_shared_index`."""

    # -- epoch awareness ------------------------------------------------------

    def _refresh_epoch(self) -> None:
        """Invalidate memos when a mutable index advanced its epoch.

        Static indexes keep ``epoch == 0`` so this is a no-op int compare on
        the batch paths. After a mutation (or compaction) of a
        :class:`~repro.blockprocessing.delta_index.DeltaEntityIndex`, the
        degree/edge-count memos are dropped and the backend hook
        :meth:`_epoch_invalidated` re-reads any index-sized caches.
        """
        epoch = getattr(self.index, "epoch", 0)
        if epoch != self._epoch:
            self._epoch = epoch
            self._degrees = None
            self._degrees_array = None
            self._total_edges = None
            self._epoch_invalidated()

    def _epoch_invalidated(self) -> None:
        """Backend hook: refresh caches invalidated by an index mutation."""

    # -- graph structure ----------------------------------------------------

    def nodes(self) -> list[int]:
        """Entity ids with at least one block assignment (graph nodes)."""
        return self.index.placed_entities()

    @property
    def graph_order(self) -> int:
        """``|V_B|`` — number of nodes of the blocking graph."""
        return len(self.nodes())

    @property
    def graph_size(self) -> int:
        """``|E_B|`` — number of distinct edges of the blocking graph."""
        self._refresh_epoch()
        if self._total_edges is None:
            self._compute_degrees()
        assert self._total_edges is not None
        return self._total_edges

    def degrees(self) -> list[int]:
        """Node degrees ``|v_i|`` (distinct co-occurring entities)."""
        self._refresh_epoch()
        if self._degrees is None:
            self._compute_degrees()
        assert self._degrees is not None
        return self._degrees

    # -- backend-specific ---------------------------------------------------

    @abstractmethod
    def neighborhood(self, entity: int) -> Neighborhood:
        """All ``(other, weight)`` incident to ``entity`` (each other once)."""

    @abstractmethod
    def iter_edges(self) -> Iterator[Edge]:
        """Every distinct edge once, as ``(smaller, larger, weight)``.

        For bilateral collections edges are emitted from their
        first-collection endpoint; ids are canonicalised so that
        ``smaller < larger`` always holds.
        """

    def _compute_degrees(self) -> None:
        """Populate ``_degrees`` and ``_total_edges``."""
        self._store_degrees(self._degree_runs(self.nodes()))

    def _degree_runs(self, entities) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(run, degrees)`` per node run of :meth:`neighborhood_chunks`:
        the segment lengths of :meth:`_count_chunk`."""
        for run in self._node_runs(entities):
            yield run, np.diff(self._count_chunk(run, ascending=True)[0])

    def _store_degrees(self, runs) -> None:
        """Cache the degrees of ``(run, degrees)`` pairs; others are 0."""
        degrees = np.zeros(self.num_entities, dtype=np.int64)
        for run, lengths in runs:
            degrees[run] = lengths
        self._degrees_array = degrees
        self._degrees = degrees.tolist()
        # Every edge is discovered from both endpoints.
        self._total_edges = int(degrees.sum()) // 2

    # -- columnar bulk API ---------------------------------------------------
    #
    # ``neighborhood_batch`` is the one bulk kernel: every chunked consumer
    # (the pruning algorithms, the parallel executor's ranges, the edge
    # stream) reads node chunks through it. Backends override it to weight
    # a whole chunk at once; whatever the backend, each segment carries the
    # neighbours, order and weight bits of its ``neighborhood()``, so bulk
    # and per-edge pruning retain identical comparisons in the same order.

    def neighborhood_batch(self, entities) -> NeighborhoodBatch:
        """Weighted neighbourhoods of many nodes in one call.

        Segment ``i`` of the result is :meth:`neighborhood` of
        ``entities[i]`` (empty segments kept). This generic version loops
        :meth:`neighborhood`, which keeps Algorithm 2 per-comparison and
        reports no shared-block counts.
        """
        entities = np.ascontiguousarray(entities, dtype=np.int64)
        neighbors: list[int] = []
        weights: list[float] = []
        offsets = [0]
        for entity in entities.tolist():
            for other, weight in self.neighborhood(entity):
                neighbors.append(other)
                weights.append(weight)
            offsets.append(len(neighbors))
        return NeighborhoodBatch(
            entities,
            np.array(offsets, dtype=np.int64),
            np.array(neighbors, dtype=np.int64),
            None,
            np.array(weights, dtype=np.float64),
        )

    def neighborhood_chunks(
        self, entities, chunk_size: int | None = None
    ) -> Iterator[NeighborhoodBatch]:
        """:meth:`neighborhood_batch` over consecutive runs of ``entities``.

        A run closes at the node that brings it to ``chunk_size`` (default
        :data:`~repro.core.edge_stream.DEFAULT_CHUNK_SIZE`) co-occurrences,
        counted by the Entity Index before any weighting — an upper bound of
        the run's edges. Nodes without co-occurrences have empty
        neighbourhoods and are skipped. Boundaries only bound memory and
        amortise the kernel's per-call cost; they never change a result.
        """
        for run in self._node_runs(entities, chunk_size):
            yield self.neighborhood_batch(run)

    def _node_runs(
        self, entities, chunk_size: int | None = None
    ) -> Iterator[np.ndarray]:
        """The runs of :meth:`neighborhood_chunks`, unweighted."""
        size = chunk_size if chunk_size and chunk_size > 0 else DEFAULT_CHUNK_SIZE
        entities = np.asarray(entities, dtype=np.int64)
        lengths = self.index.cooccurrence_lengths(entities)
        nonempty = lengths > 0
        entities = entities[nonempty]
        ends = np.cumsum(lengths[nonempty])
        start = 0
        while start < entities.size:
            reach = (int(ends[start - 1]) if start else 0) + size
            stop = int(np.searchsorted(ends, reach)) + 1
            yield entities[start:stop]
            start = stop

    def _count_chunk(
        self, entities: np.ndarray, ascending: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 3's ScanCount for a whole node chunk, in numpy.

        Returns ``(offsets, neighbors, counts, arcs_sums)``: segment ``i``
        holds the distinct neighbours of ``entities[i]``, ascending or, with
        ``ascending=False``, in the order of their first co-occurrence in
        the gather (``B_i`` ascending, then members in block order), which
        is the order :meth:`OptimizedEdgeWeighting._scan` meets them in.
        ``counts`` are ``|B_ij|``; ARCS sums (zeros for other schemes) are
        added in gather order, the scan's order, so the float bits match.
        Nothing is weighted, so the degree pass can run on it.
        """
        n = int(entities.size)
        offsets = np.zeros(n + 1, dtype=np.int64)
        ids, positions, gather_offsets = self.index.cooccurrence_arrays_multi(
            entities
        )
        if ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return offsets, empty, empty, np.empty(0, dtype=np.float64)
        stride = np.int64(max(self.num_entities, 1))
        keys = (
            np.repeat(np.arange(n, dtype=np.int64), np.diff(gather_offsets))
            * stride
            + ids
        )
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = first.nonzero()[0]
        counts = np.diff(starts, append=keys.size)
        keys = keys[starts]
        if self.scheme.uses_arcs_sum:
            groups = np.empty(order.size, dtype=np.int64)
            groups[order] = np.cumsum(first) - 1
            arcs = np.bincount(
                groups,
                weights=self.index.inverse_cardinality_array[positions],
                minlength=starts.size,
            )
        else:
            arcs = np.zeros(starts.size, dtype=np.float64)
        if not ascending:
            # Each group's first gather position; segments are contiguous
            # in the gather, so this order also keeps them in place.
            found = np.argsort(np.minimum.reduceat(order, starts))
            keys, counts, arcs = keys[found], counts[found], arcs[found]
        segments = keys // stride
        np.cumsum(np.bincount(segments, minlength=n), out=offsets[1:])
        return offsets, keys - segments * stride, counts, arcs

    def _counted_batch(self, entities, ascending: bool) -> NeighborhoodBatch:
        """:meth:`neighborhood_batch` from :meth:`_count_chunk`, weighted by
        one :meth:`_batch_weights` call."""
        self._prepare_scheme_inputs()
        entities = np.ascontiguousarray(entities, dtype=np.int64)
        offsets, neighbors, counts, arcs = self._count_chunk(entities, ascending)
        weights = self._batch_weights(
            np.repeat(entities, np.diff(offsets)), neighbors, counts, arcs
        )
        return NeighborhoodBatch(entities, offsets, neighbors, counts, weights)

    def emitters(self, entities) -> np.ndarray:
        """The entities of ``entities`` that emit distinct edges.

        Each distinct edge of the graph is emitted by exactly one endpoint:
        the lower id for unilateral collections (any node may emit), the
        first-collection endpoint for bilateral ones.
        """
        entities = np.asarray(entities, dtype=np.int64)
        if not self.index.is_bilateral:
            return entities
        second = np.asarray(self.index.second_side_mask, dtype=bool)
        return entities[~second[entities]]

    def neighborhood_arrays(self, entity: int) -> NeighborhoodArrays:
        """``neighborhood(entity)`` as ``(neighbors, weights)`` arrays.

        Ordering matches :meth:`neighborhood` element-for-element.
        """
        neighborhood = self.neighborhood(entity)
        count = len(neighborhood)
        if count == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        neighbors = np.fromiter(
            (other for other, _ in neighborhood), dtype=np.int64, count=count
        )
        weights = np.fromiter(
            (weight for _, weight in neighborhood), dtype=np.float64, count=count
        )
        return neighbors, weights

    def emitted_arrays(self, entity: int) -> NeighborhoodArrays:
        """The distinct edges *emitted* by ``entity`` (see :meth:`emitters`),
        as ``(neighbors, weights)`` arrays in :meth:`neighborhood` order."""
        if self.index.is_bilateral:
            if self.index.in_second_collection(entity):
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                )
            return self.neighborhood_arrays(entity)
        neighbors, weights = self.neighborhood_arrays(entity)
        keep = neighbors > entity
        if keep.all():
            return neighbors, weights
        return neighbors[keep], weights[keep]

    def iter_edge_batches(
        self, chunk_size: int | None = None
    ) -> Iterator[EdgeBatch]:
        """Stream every distinct edge once, in :class:`EdgeBatch` chunks.

        The emitting nodes' chunks in node order, each masked to the edges
        it emits: the concatenation equals :meth:`iter_edges` edge for edge
        (same canonical ids, same weights, same order) on every
        node-ordered backend; only the chunking is new.
        """
        for fused in weight_and_prune_chunks(
            self, self.emitters(self.nodes()), chunk_size
        ):
            if len(fused.emitted):
                yield fused.emitted

    def count_neighbors(self, entity: int) -> int:
        """``|v_entity|`` — distinct co-occurring entities (the node degree).

        A pure graph statistic: unlike :meth:`neighborhood` it never touches
        weights, so it is safe to call while degrees are still unknown. The
        degree passes read the same counts per chunk (:meth:`_degree_runs`).
        """
        seen: set[int] = set()
        index = self.index
        for position in index.block_list(entity):
            seen.update(index.cooccurring(entity, position))
        seen.discard(entity)
        return len(seen)

    # -- shared helpers -----------------------------------------------------

    def iter_neighborhoods(self) -> Iterator[tuple[int, Neighborhood]]:
        """Yield ``(entity, neighborhood)`` for every graph node."""
        for entity in self.nodes():
            yield entity, self.neighborhood(entity)

    def _prepare_scheme_inputs(self) -> None:
        """Refresh stale memos, then force the degree pass if needed (EJS)."""
        self._refresh_epoch()
        if self.scheme.uses_degrees and self._degrees is None:
            self._compute_degrees()

    def prime(self) -> None:
        """Resolve every epoch-dependent memo **now**, on the caller's thread.

        Thread-fanout consumers (the incremental resolver's parallel
        refresh) call this before handing per-thread clones slices of the
        node set, so the shared index's lazily-filled caches are written
        once here and only read concurrently afterwards.
        """
        self._prepare_scheme_inputs()

    def _batch_weights(
        self,
        owners: np.ndarray,
        neighbors: np.ndarray,
        counts: np.ndarray,
        arcs_sums: np.ndarray,
    ) -> np.ndarray:
        """Weights of the edges ``owners[i] -> neighbors[i]`` in one
        :meth:`~repro.core.weights.WeightingScheme.weight_array` call —
        bit-identical to :meth:`_weight` per edge."""
        block_counts = self.index.block_counts
        if self._degrees is None:
            degree_i = degree_j = np.zeros(owners.size, dtype=np.int64)
        else:
            if self._degrees_array is None:
                self._degrees_array = np.asarray(self._degrees, dtype=np.int64)
            degree_i = self._degrees_array[owners]
            degree_j = self._degrees_array[neighbors]
        return self.scheme.weight_array(
            counts,
            arcs_sums,
            block_counts[owners],
            block_counts[neighbors],
            degree_i,
            degree_j,
            self.total_blocks,
            self._total_edges if self._total_edges is not None else 0,
        )

    def _weight(
        self,
        left: int,
        right: int,
        common_blocks: int,
        arcs_sum: float,
    ) -> float:
        degrees = self._degrees
        return self.scheme.weight(
            common_blocks,
            arcs_sum,
            len(self.index.block_list(left)),
            len(self.index.block_list(right)),
            degrees[left] if degrees is not None else 0,
            degrees[right] if degrees is not None else 0,
            self.total_blocks,
            self._total_edges if self._total_edges is not None else 0,
        )


class OptimizedEdgeWeighting(EdgeWeighting):
    """Algorithm 3: ScanCount over each node's blocks.

    The three reusable arrays (``flags``, ``common``, ``arcs``) are sized
    ``|E|`` once; ``flags[j] == current_entity`` marks ``common[j]`` as
    valid, so no clearing between nodes is needed.
    """

    def __init__(
        self, blocks: BlockCollection, scheme: "str | WeightingScheme"
    ) -> None:
        super().__init__(blocks, scheme)
        self._init_shared_state()

    def _init_shared_state(self) -> None:
        self._flags = [-1] * self.num_entities
        self._common = [0] * self.num_entities
        self._arcs = [0.0] * self.num_entities
        # Monotonic stamp marking which scan last touched a counter cell.
        # Using the entity id itself (as in the paper's pseudo-code, which
        # performs a single pass) would go stale when the same node is
        # scanned again in a later pass over the graph.
        self._stamp = 0

    def _epoch_invalidated(self) -> None:
        grow = self.num_entities - len(self._flags)
        if grow > 0:
            self._flags.extend([-1] * grow)
            self._common.extend([0] * grow)
            self._arcs.extend([0.0] * grow)

    def _scan(self, entity: int) -> list[int]:
        """One ScanCount pass; returns the distinct neighbours of ``entity``.

        After the pass, ``self._common[j]`` holds ``|B_entity,j|`` and (when
        the scheme needs it) ``self._arcs[j]`` holds ``sum(1/||b||)`` over
        the shared blocks.
        """
        self._refresh_epoch()
        flags, common, arcs = self._flags, self._common, self._arcs
        self._stamp += 1
        stamp = self._stamp
        index = self.index
        inverse_cardinalities = index.inverse_cardinalities
        accumulate_arcs = self.scheme.uses_arcs_sum
        neighbors: list[int] = []
        for position in index.block_list(entity):
            members = index.cooccurring(entity, position)
            if accumulate_arcs:
                inverse = inverse_cardinalities[position]
            for other in members:
                if other == entity:
                    continue
                if flags[other] != stamp:
                    flags[other] = stamp
                    common[other] = 0
                    if accumulate_arcs:
                        arcs[other] = 0.0
                    neighbors.append(other)
                common[other] += 1
                if accumulate_arcs:
                    arcs[other] += inverse
        return neighbors

    def neighborhood(self, entity: int) -> Neighborhood:
        self._prepare_scheme_inputs()
        neighbors = self._scan(entity)
        common, arcs = self._common, self._arcs
        return [
            (other, self._weight(entity, other, common[other], arcs[other]))
            for other in neighbors
        ]

    def neighborhood_batch(self, entities) -> NeighborhoodBatch:
        """:meth:`_count_chunk` in discovery order, weighted once per batch:
        each segment lists its neighbours as :meth:`_scan` first meets
        them."""
        return self._counted_batch(entities, ascending=False)

    def iter_edges(self) -> Iterator[Edge]:
        self._prepare_scheme_inputs()
        bilateral = self.index.is_bilateral
        common, arcs = self._common, self._arcs
        for entity in self.nodes():
            if bilateral:
                if self.index.in_second_collection(entity):
                    continue
                emit = self._scan(entity)
            else:
                emit = [other for other in self._scan(entity) if other > entity]
            for other in emit:
                weight = self._weight(entity, other, common[other], arcs[other])
                if entity < other:
                    yield entity, other, weight
                else:
                    yield other, entity, weight

    def count_neighbors(self, entity: int) -> int:
        return len(self._scan(entity))


class OriginalEdgeWeighting(EdgeWeighting):
    """Algorithm 2: per-comparison block-list intersection with LeCoBI.

    Kept as the faithful baseline for the Table 5 timing comparison; it
    computes exactly the same weights as the optimized backend at
    O(2·BPE) per comparison.
    """

    # iter_edges walks blocks, not nodes, so its order differs from the
    # node-partitioned emitted_arrays view; retention re-streams it.
    node_ordered_edge_stream = False

    def iter_edge_batches(
        self, chunk_size: int | None = None
    ) -> Iterator[EdgeBatch]:
        """:meth:`iter_edges` in :class:`EdgeBatch` chunks, block order kept."""
        size = chunk_size if chunk_size and chunk_size > 0 else DEFAULT_CHUNK_SIZE
        edges: list[Edge] = []
        for edge in self.iter_edges():
            edges.append(edge)
            if len(edges) >= size:
                yield EdgeBatch.from_edges(edges)
                edges = []
        if edges:
            yield EdgeBatch.from_edges(edges)

    def _intersect(
        self, left: int, right: int, block_position: int | None
    ) -> tuple[int, float] | None:
        """Merge the two block lists (Algorithm 2, lines 7-15).

        Returns ``(common_blocks, arcs_sum)``, or ``None`` when
        ``block_position`` is given and the first shared block differs from
        it (the comparison is redundant — LeCoBI violated).
        """
        first = self.index.block_list(left)
        second = self.index.block_list(right)
        inverse_cardinalities = self.index.inverse_cardinalities
        accumulate_arcs = self.scheme.uses_arcs_sum
        common = 0
        arcs_sum = 0.0
        pos_first = pos_second = 0
        while pos_first < len(first) and pos_second < len(second):
            if first[pos_first] < second[pos_second]:
                pos_first += 1
            elif first[pos_first] > second[pos_second]:
                pos_second += 1
            else:
                if (
                    common == 0
                    and block_position is not None
                    and first[pos_first] != block_position
                ):
                    return None
                common += 1
                if accumulate_arcs:
                    arcs_sum += inverse_cardinalities[first[pos_first]]
                pos_first += 1
                pos_second += 1
        if common == 0:
            return None
        return common, arcs_sum

    def neighborhood(self, entity: int) -> Neighborhood:
        self._prepare_scheme_inputs()
        result: Neighborhood = []
        for position in self.index.block_list(entity):
            for other in self.index.cooccurring(entity, position):
                if other == entity:
                    continue
                stats = self._intersect(entity, other, position)
                if stats is None:
                    continue
                common, arcs_sum = stats
                result.append(
                    (other, self._weight(entity, other, common, arcs_sum))
                )
        return result

    def iter_edges(self) -> Iterator[Edge]:
        self._prepare_scheme_inputs()
        for position, block in enumerate(self.blocks):
            for left, right in block.comparisons():
                stats = self._intersect(left, right, position)
                if stats is None:
                    continue
                common, arcs_sum = stats
                yield left, right, self._weight(left, right, common, arcs_sum)

    def _compute_degrees(self) -> None:
        degrees = [0] * self.num_entities
        total = 0
        for position, block in enumerate(self.blocks):
            for left, right in block.comparisons():
                if self.index.satisfies_lecobi(left, right, position):
                    degrees[left] += 1
                    degrees[right] += 1
                    total += 1
        self._degrees = degrees
        self._total_edges = total


def weight_and_prune_chunks(
    weighting: EdgeWeighting,
    entities,
    chunk_size: int | None = None,
) -> Iterator[FusedChunk]:
    """:meth:`EdgeWeighting.neighborhood_chunks` as :class:`FusedChunk`\\ s.

    Each chunk is weighted once and serves both pruning phases: the full
    neighbourhoods feed the node-centric criterion, and the chunk's slice of
    the distinct-edge stream is masked out of the same arrays when first
    read — an edge is emitted by its owner when the owner is on the first
    side (bilateral) or has the lower id (unilateral). Chunk boundaries
    never affect any downstream result.
    """
    index = weighting.index
    second_side = (
        np.asarray(index.second_side_mask, dtype=bool)
        if index.is_bilateral
        else None
    )
    for batch in weighting.neighborhood_chunks(entities, chunk_size):
        group = batch.node_group()
        if group.entities.size:
            yield FusedChunk(group, second_side)
