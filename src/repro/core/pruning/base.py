"""Shared machinery of the pruning algorithms: thresholds and the step driver.

Every algorithm is written once, as chunk steps that its
:meth:`PruningAlgorithm.steps` hands to a :class:`PruningRun`:

* a per-node-chunk step — :meth:`PruningRun.select` when each node keeps
  its own edges (CNP/WNP: the step returns the chunk's retained pairs), or
  :meth:`PruningRun.criteria` when a criterion comes first (the
  redefined/reciprocal top-k keys or neighbourhood means, WEP's per-node
  weight sums); :meth:`PruningRun.reduce` folds the distinct edges the
  same way (CEP's local top-k);
* an owner-side ``merge`` that folds those parts, in node order, into the
  state retention reads;
* a per-:class:`~repro.core.edge_stream.EdgeBatch` retention step —
  :meth:`PruningRun.retain` — that masks the edges it keeps.

Serial :meth:`PruningAlgorithm.prune` runs the steps over the whole node
list. :class:`~repro.core.parallel.ParallelMetaBlockingExecutor` passes
itself as the run's *mapper* and maps the same steps over node ranges on
its thread pool, so neither caller holds per-algorithm code.
"""

from __future__ import annotations

from abc import ABC
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.edge_stream import EdgeBatch, FusedChunk, NodeGroup
from repro.core.edge_weighting import EdgeWeighting, weight_and_prune_chunks
from repro.datamodel.blocks import BlockCollection, ComparisonCollection
from repro.datamodel.sinks import ComparisonSink, InMemorySink, SpillSink

#: A node range ``(start, stop)`` of a parallel run; ``None`` is the whole
#: node list of a serial run.
Span = Optional[Tuple[int, int]]
#: A chunk's retained edges as canonical ``(sources, targets)`` arrays.
Pairs = Tuple[np.ndarray, np.ndarray]


class PruningAlgorithm(ABC):
    """Base class: prune a weighted blocking graph into comparisons.

    Every pruning scheme is the combination of a pruning *algorithm* (edge-
    or node-centric) with a pruning *criterion* (weight or cardinality
    threshold, global or local). Instances are stateless across calls;
    :meth:`prune` may be invoked with different weighting backends.

    Subclasses write their algorithm once, as the chunk steps of
    :meth:`steps`; :meth:`prune` and the parallel executor both run them
    through a :class:`PruningRun`, which emits every retained edge into a
    :class:`~repro.datamodel.sinks.ComparisonSink` (in-memory by default,
    spill-to-disk or a bounded generator when the caller supplies one).
    The subclasses' ``prune_per_edge`` methods are the tuple-at-a-time
    references every path is tested against.
    """

    #: Acronym used in the paper and in the registry.
    name: str = ""

    #: Edges per :class:`~repro.core.edge_stream.EdgeBatch` chunk consumed by
    #: the batched path; ``None`` uses the stream's default. Chunking never
    #: affects the retained comparisons, only peak memory.
    chunk_size: int | None = None

    def prune(
        self, weighting: EdgeWeighting, sink: "ComparisonSink | None" = None
    ) -> ComparisonCollection:
        """Return the retained comparisons of the weighted blocking graph.

        With ``sink=None`` the result is an in-memory
        :class:`~repro.datamodel.sinks.ComparisonView`. Supplying a sink
        routes the retained edges through it instead (same order); on any
        failure the sink is aborted so partial spill artifacts never leak.
        """
        return PruningRun.execute(self, weighting, sink)

    def steps(self, run: "PruningRun") -> None:
        """Hand this algorithm's chunk steps to ``run`` (subclass hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} is not written as chunk steps"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PruningRun:
    """One pruning run: the driver that maps an algorithm's chunk steps.

    ``mapper`` is ``None`` for a serial run, whose steps cover the whole
    node list in one span. The parallel executor passes itself: its
    ``nodes`` list, ``map_parts(name, task, merge)`` (run ``task`` per
    node range, ``merge`` the results in range order) and
    ``map_pairs(name, task, sink)`` (run ``task`` per node range and feed
    its pairs to ``sink`` in range order).

    This is also the one place that decides how retention reads its edges
    (:attr:`caches`).
    """

    def __init__(
        self,
        weighting: EdgeWeighting,
        sink: ComparisonSink,
        name: str = "",
        chunk_size: int | None = None,
        mapper=None,
    ) -> None:
        self.weighting = weighting
        self.sink = sink
        self.name = name
        self.chunk_size = chunk_size
        self._mapper = mapper
        #: Whether :meth:`criteria` keeps each chunk's emitted
        #: :class:`~repro.core.edge_stream.EdgeBatch` for :meth:`retain`,
        #: so every neighbourhood is weighed once. Only in-memory runs on a
        #: node-ordered edge stream do: a spill run must bound its memory,
        #: and Algorithm 2's edges stream in block order, which a cache of
        #: node chunks would change. Every other run re-streams the edges.
        self.caches = (
            isinstance(sink, InMemorySink) and weighting.node_ordered_edge_stream
        )
        self._cache: "dict | None" = None

    @classmethod
    def execute(
        cls,
        algorithm: PruningAlgorithm,
        weighting: EdgeWeighting,
        sink: "ComparisonSink | None" = None,
        mapper=None,
    ) -> ComparisonCollection:
        """Run ``algorithm``'s steps into ``sink`` and seal it; aborts the
        sink on any failure."""
        collector = sink if sink is not None else InMemorySink()
        run = cls(
            weighting,
            collector,
            algorithm.name or type(algorithm).__name__,
            algorithm.chunk_size,
            mapper,
        )
        try:
            algorithm.steps(run)
        except BaseException:
            collector.abort()
            raise
        return collector.finalize(weighting.num_entities)

    # -- the steps -------------------------------------------------------------

    def select(self, step: "Callable[[NodeGroup], Pairs]") -> None:
        """Retain each node chunk's pairs: ``step(group)`` returns them,
        canonical, and they go to the sink in node order (CNP, WNP)."""

        def task(weighting: EdgeWeighting, span: Span) -> Iterator[Pairs]:
            for batch in weighting.neighborhood_chunks(
                self._nodes(weighting, span), self.chunk_size
            ):
                yield step(batch.node_group())

        self._pairs("select", task)

    def criteria(
        self,
        step: "Callable[[Iterator[FusedChunk]], object]",
        merge: "Callable[[list], object]",
        emitters: bool = False,
    ):
        """Phase one: ``step(chunks)`` folds one span's node chunks into a
        part, and ``merge(parts)`` folds the spans' parts, in node order,
        into the state :meth:`retain` reads, which is returned.

        With ``emitters`` only the nodes that emit distinct edges are
        weighed (the step reads nothing but the emitted edges). When the
        run :attr:`caches`, each chunk's emitted batch is kept for
        :meth:`retain`; the chunk's neighbourhoods are not.
        """
        cache = {} if self.caches else None

        def task(weighting: EdgeWeighting, span: Span):
            nodes = self._nodes(weighting, span)
            chunks = weight_and_prune_chunks(
                weighting,
                weighting.emitters(nodes) if emitters else nodes,
                self.chunk_size,
            )
            if cache is None:
                return step(chunks)
            # A retried span rewrites its own entry with the same batches.
            cache[span] = emitted = []
            return step(_keeping_emitted(chunks, emitted))

        state = self._parts("criteria", task, merge)
        self._cache = cache
        return state

    def reduce(
        self,
        step: "Callable[[Iterator[EdgeBatch]], object]",
        merge: "Callable[[list], object]",
    ):
        """Fold the distinct edges: ``step(batches)`` folds one span's edge
        stream into a part and ``merge(parts)`` folds the parts, which is
        returned. The caller appends the merged output owner-side (CEP)."""
        if isinstance(self.sink, SpillSink) and self.sink.resuming:
            # Nothing was written yet, so aborting keeps the checkpoint.
            raise ValueError(
                f"{self.name} merges its output owner-side, so it has no "
                "chunk-level completion records; checkpoint resume is not "
                f"supported for {self.name}"
            )
        return self._parts(
            "reduce",
            lambda weighting, span: step(self._edge_batches(weighting, span)),
            merge,
        )

    def retain(self, step: "Callable[[EdgeBatch], np.ndarray]") -> None:
        """Phase two: ``step(batch)`` masks the edges of one
        :class:`~repro.core.edge_stream.EdgeBatch` to retain; they go to the
        sink in stream order. Reads the batches :meth:`criteria` cached, or
        re-streams them."""
        cache = self._cache

        def task(weighting: EdgeWeighting, span: Span) -> Iterator[Pairs]:
            batches = (
                cache[span]
                if cache is not None
                else self._edge_batches(weighting, span)
            )
            for batch in batches:
                keep = step(batch)
                yield batch.sources[keep], batch.targets[keep]

        self._pairs("retain", task)

    # -- mapping -------------------------------------------------------------

    def _nodes(self, weighting: EdgeWeighting, span: Span):
        if span is None:
            return weighting.nodes()
        return self._mapper.nodes[span[0] : span[1]]

    def _edge_batches(
        self, weighting: EdgeWeighting, span: Span
    ) -> Iterator[EdgeBatch]:
        """The distinct edges of ``span``: the whole graph's stream in a
        serial run (block order for Algorithm 2), else the range's emitted
        edges in node order."""
        if span is None:
            return weighting.iter_edge_batches(self.chunk_size)
        return (
            chunk.emitted
            for chunk in weight_and_prune_chunks(
                weighting,
                weighting.emitters(self._nodes(weighting, span)),
                self.chunk_size,
            )
        )

    def _task_name(self, phase: str) -> str:
        """``"<acronym>:<phase>"`` — what fault plans match chunks on."""
        return f"{self.name.lower()}:{phase}"

    def _parts(self, phase: str, task, merge):
        if self._mapper is None:
            return merge([task(self.weighting, None)])
        return self._mapper.map_parts(self._task_name(phase), task, merge)

    def _pairs(self, phase: str, task) -> None:
        if self._mapper is None:
            for sources, targets in task(self.weighting, None):
                self.sink.append(sources, targets)
            return
        self._mapper.map_pairs(self._task_name(phase), task, self.sink)


def _keeping_emitted(
    chunks: "Iterator[FusedChunk]", emitted: "list[EdgeBatch]"
) -> Iterator[FusedChunk]:
    for chunk in chunks:
        emitted.append(chunk.emitted)
        yield chunk


def cardinality_edge_threshold(blocks: "BlockCollection | EntityIndex") -> int:
    """CEP's global cardinality threshold ``K = floor(sum(|b|) / 2)``.

    An Entity Index reads ``sum(|b|)`` off its CSR instead of every block.
    """
    return blocks.aggregate_size // 2


def cardinality_node_threshold(blocks: "BlockCollection | EntityIndex") -> int:
    """CNP's per-node threshold ``k = floor(sum(|b|)/|E| - 1)``, at least 1.

    ``sum(|b|)/|E|`` is BPE, so each node retains one edge per block it
    would on average participate in, minus one.
    """
    if blocks.num_entities == 0:
        return 1
    return max(1, int(blocks.aggregate_size / blocks.num_entities - 1))


def emitted_weight_sums(
    chunks: "Iterator[FusedChunk]",
) -> "tuple[list[np.ndarray], int]":
    """WEP's criterion step: per-emitting-node weight sums of a span's
    chunks (node order) and their edge count."""
    sums: list[np.ndarray] = []
    count = 0
    for chunk in chunks:
        node_sums, edges = chunk.emitted_node_sums()
        if edges:
            sums.append(node_sums)
            count += edges
    return sums, count


def mean_of_sums(parts: "list[tuple[list[np.ndarray], int]]") -> float:
    """WEP's merge: the global mean weight from the spans' per-node sums.

    The sums are reduced with one ``np.sum`` over the node-ordered array,
    so the mean never depends on how the nodes were chunked or split
    across workers.
    """
    sums = [array for span_sums, _ in parts for array in span_sums]
    count = sum(span_count for _, span_count in parts)
    if count == 0:
        return 0.0
    return float(np.sum(np.concatenate(sums))) / count


def mean_edge_weight(weighting: EdgeWeighting) -> float:
    """WEP's global threshold: the average weight over all distinct edges.

    The same steps as WEP's criterion phase, over the whole node list.
    """
    chunks = weight_and_prune_chunks(
        weighting, weighting.emitters(weighting.nodes())
    )
    return mean_of_sums([emitted_weight_sums(chunks)])


__all__ = [
    "PruningAlgorithm",
    "PruningRun",
    "cardinality_edge_threshold",
    "cardinality_node_threshold",
    "emitted_weight_sums",
    "mean_edge_weight",
    "mean_of_sums",
]
