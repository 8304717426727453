"""Shared machinery of the pruning algorithms."""

from __future__ import annotations

import inspect
from abc import ABC

import numpy as np

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.edge_stream import neighborhood_mean
from repro.core.edge_weighting import EdgeWeighting, weight_and_prune_chunks
from repro.datamodel.blocks import BlockCollection, ComparisonCollection
from repro.datamodel.sinks import ComparisonSink, InMemorySink, ensure_view


class PruningAlgorithm(ABC):
    """Base class: prune a weighted blocking graph into comparisons.

    Every pruning scheme is the combination of a pruning *algorithm* (edge-
    or node-centric) with a pruning *criterion* (weight or cardinality
    threshold, global or local). Instances are stateless across calls;
    :meth:`prune` may be invoked with different weighting backends.

    :meth:`prune` is a template: it consumes the blocking graph in bulk
    array form (node chunks from
    :meth:`~repro.core.edge_weighting.EdgeWeighting.neighborhood_chunks`
    and the :class:`~repro.core.edge_stream.EdgeBatch` stream) and emits
    every retained edge through a
    :class:`~repro.datamodel.sinks.ComparisonSink` — in-memory by default,
    spill-to-disk or a bounded generator when the caller supplies one —
    via the subclass hook :meth:`_prune_into`. Pre-sink subclasses that
    override :meth:`prune` with the old single-argument signature keep
    working (see :func:`run_pruning`). :meth:`prune_per_edge` is the
    historical tuple-at-a-time path, kept as a compatibility shim. All
    paths retain exactly the same comparison set (asserted by the test
    suite).
    """

    #: Acronym used in the paper and in the registry.
    name: str = ""

    #: Edges per :class:`~repro.core.edge_stream.EdgeBatch` chunk consumed by
    #: the batched path; ``None`` uses the stream's default. Chunking never
    #: affects the retained comparisons, only peak memory.
    chunk_size: int | None = None

    #: Enables the fused single-gather fast path on the two-pass algorithms
    #: (ReCNP/ReWNP families, WEP): each CSR neighbourhood is gathered once
    #: and cached across both phases instead of re-gathered per phase. The
    #: retained comparisons are identical either way (asserted by the test
    #: suite); flip to ``False`` to force the historical two-pass streaming.
    fused: bool = True

    def _use_fused_path(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> bool:
        """Whether the fused path may replace the two-pass streaming path.

        Requires a node-ordered edge stream (so the emission order matches
        the legacy pass exactly) and an in-memory sink — spill sinks keep
        the streaming path, whose bounded-memory behaviour and resume
        chunk signatures the fused cache would change.
        """
        return (
            self.fused
            and weighting.node_ordered_edge_stream
            and isinstance(sink, InMemorySink)
        )

    def prune(
        self, weighting: EdgeWeighting, sink: "ComparisonSink | None" = None
    ) -> ComparisonCollection:
        """Return the retained comparisons of the weighted blocking graph.

        With ``sink=None`` the result is an in-memory
        :class:`~repro.datamodel.sinks.ComparisonView`, element-for-element
        identical to the historical eager list. Supplying a sink routes the
        retained edges through it instead (same order); on any failure the
        sink is aborted so partial spill artifacts never leak.
        """
        collector = sink if sink is not None else InMemorySink()
        try:
            self._prune_into(weighting, collector)
        except BaseException:
            collector.abort()
            raise
        return collector.finalize(weighting.num_entities)

    def _prune_into(
        self, weighting: EdgeWeighting, sink: ComparisonSink
    ) -> None:
        """Stream every retained edge into ``sink`` (subclass hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither prune() nor "
            "_prune_into()"
        )

    def prune_per_edge(self, weighting: EdgeWeighting) -> ComparisonCollection:
        """Per-edge compatibility shim; same retained set as :meth:`prune`."""
        return self.prune(weighting)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def accepts_sink(algorithm: PruningAlgorithm) -> bool:
    """True iff ``algorithm.prune`` takes the ``sink`` keyword.

    Third-party subclasses written before the sink API override ``prune``
    with the single-argument signature; they still work through
    :func:`run_pruning`, which drains their eager output into the sink.
    """
    try:
        parameters = inspect.signature(type(algorithm).prune).parameters
    except (TypeError, ValueError):  # builtins/C callables: assume modern
        return True
    if "sink" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def run_pruning(
    algorithm: PruningAlgorithm,
    weighting: EdgeWeighting,
    sink: "ComparisonSink | None" = None,
) -> ComparisonCollection:
    """Run ``algorithm`` against ``weighting``, emitting through ``sink``.

    The serial entry point of the pipeline: sink-aware algorithms stream
    straight into the sink; legacy single-argument ``prune`` overrides run
    eagerly and their output is drained through the sink afterwards, so the
    caller always gets a uniform :class:`~repro.datamodel.sinks.ComparisonView`.
    """
    if sink is None:
        return algorithm.prune(weighting)
    if accepts_sink(algorithm):
        return algorithm.prune(weighting, sink=sink)
    try:
        eager = algorithm.prune(weighting)
    except BaseException:
        sink.abort()
        raise
    return ensure_view(eager, sink)


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


def mean_edge_weight(weighting: EdgeWeighting) -> float:
    """WEP's global threshold: the average weight over all distinct edges.

    Computed from per-emitting-node partial sums in node order, so the
    result is bit-identical no matter how the edge stream is chunked or
    how many workers the parallel executor fans it across (the per-node
    array is the atomic unit of every partitioning).
    """
    sums, count = node_weight_sums(weighting, weighting.nodes())
    if count == 0:
        return 0.0
    return float(np.sum(sums)) / count


def node_weight_sums(
    weighting: EdgeWeighting, entities: "list[int]"
) -> tuple[np.ndarray, int]:
    """Per-node emitted-weight sums (and total edge count) for ``entities``.

    The building block of :func:`mean_edge_weight` and of the parallel
    executor's two-pass WEP: partial sums are always taken per emitting
    node (one segmented ``np.add.reduceat`` per chunk), then reduced over
    the node-ordered array — so the result never depends on chunk or
    worker boundaries.
    """
    sums: list[np.ndarray] = []
    count = 0
    for fused in weight_and_prune_chunks(
        weighting, weighting.emitters(entities)
    ):
        node_sums, edges = fused.emitted_node_sums()
        if edges:
            sums.append(node_sums)
            count += edges
    if not sums:
        return np.empty(0, dtype=np.float64), 0
    return np.concatenate(sums), count


__all__ = [
    "PruningAlgorithm",
    "accepts_sink",
    "cardinality_edge_threshold",
    "cardinality_node_threshold",
    "mean_edge_weight",
    "neighborhood_mean",
    "node_weight_sums",
    "run_pruning",
]
