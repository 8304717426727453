"""End-to-end meta-blocking workflows.

Two entry points:

* :func:`meta_block` — restructure an existing block collection (the shape
  of the paper's experiments, which all start from Token Blocking blocks);
* :class:`MetaBlockingWorkflow` — the full dataset-to-comparisons pipeline:
  blocking, Block Purging, Block Filtering, edge weighting and pruning, with
  per-stage timings (the OTime decomposition of the evaluation section).
"""

from __future__ import annotations

import copy
import logging
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.blocking.base import BlockingMethod
from repro.blockprocessing.block_purging import BlockPurging
from repro.blockprocessing.delta_index import DeltaEntityIndex
from repro.core.block_filtering import BlockFiltering
from repro.core.edge_weighting import (
    EdgeWeighting,
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.core.execution import ExecutionConfig
from repro.core.parallel import (
    ParallelMetaBlockingExecutor,
    resolve_workers,
    supports_parallel,
)
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.pruning import PRUNING_ALGORITHMS, PruningAlgorithm
from repro.core.weights import WeightingScheme, get_scheme
from repro.datamodel.blocks import BlockCollection, ComparisonCollection
from repro.datamodel.dataset import ERDataset
from repro.datamodel.sinks import (
    ComparisonSink,
    ComparisonView,
    SpillSink,
    read_run_checkpoint,
)
from repro.utils.timer import Timer

logger = logging.getLogger(__name__)

#: Available weighting backends, keyed by the names used in the paper.
WEIGHTING_BACKENDS: dict[str, type[EdgeWeighting]] = {
    "optimized": OptimizedEdgeWeighting,
    "original": OriginalEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}


def run_pruning(
    algorithm: PruningAlgorithm,
    weighting: EdgeWeighting,
    sink: ComparisonSink,
) -> ComparisonCollection:
    """The serial pruning stage of :func:`meta_block`.

    Its own name so a profiler can wrap the stage: the traced benchmark
    run patches ``repro.core.pipeline.run_pruning``.
    """
    return algorithm.prune(weighting, sink=sink)


def get_pruning(algorithm: "str | PruningAlgorithm") -> PruningAlgorithm:
    """Resolve a pruning algorithm given by acronym or instance."""
    if isinstance(algorithm, PruningAlgorithm):
        return algorithm
    try:
        return PRUNING_ALGORITHMS[algorithm]()
    except KeyError:
        known = ", ".join(sorted(PRUNING_ALGORITHMS))
        raise ValueError(f"unknown pruning algorithm {algorithm!r}; known: {known}")


@dataclass
class MetaBlockingResult:
    """Output of one meta-blocking run, with the OTime decomposition.

    The retained comparisons expose a uniform consumption surface:
    :attr:`comparisons` is the (lazily materialised)
    :class:`~repro.datamodel.sinks.ComparisonView`, :meth:`stream` yields
    them as bounded ``(sources, targets)`` array batches, and
    :attr:`spill_manifest` points at the on-disk manifest when the run
    spilled (``None`` otherwise).
    """

    comparisons: ComparisonCollection
    input_blocks: BlockCollection
    filtered_blocks: BlockCollection | None
    scheme: WeightingScheme
    algorithm: PruningAlgorithm
    filtering_seconds: float = 0.0
    pruning_seconds: float = 0.0
    #: Extra stages run by the full workflow (blocking, purging).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Workers that actually ran the pruning stage (1 == serial).
    effective_workers: int = 1
    #: ``"serial"``, ``"in-process"`` (chunked, no pool) or ``"threads"``
    #: (GIL-releasing thread pool) — the executor's backend.
    parallel_backend: str = "serial"
    #: The resolved execution configuration this run used.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: ``resumed_chunks``: the chunks a resumed spill run skipped, from the
    #: parallel executor. Empty for serial runs.
    fault_stats: dict = field(default_factory=dict)
    #: Per-phase wall-clock seconds from the parallel executor —
    #: ``dispatch`` (submitting chunks to the pool), ``weight`` (chunk
    #: tasks building weights/criteria), ``prune`` (chunk tasks applying
    #: retention), ``merge`` (owner-side reduction of chunk results).
    #: Empty for serial runs.
    phase_timings: dict = field(default_factory=dict)

    @property
    def overhead_seconds(self) -> float:
        """OTime: total time spent restructuring the blocks."""
        return (
            self.filtering_seconds
            + self.pruning_seconds
            + sum(self.stage_seconds.values())
        )

    @property
    def spill_manifest(self) -> "str | None":
        """Path of the spill manifest, or ``None`` for in-memory runs."""
        return getattr(self.comparisons, "spill_manifest", None)

    def stream(
        self, batch_size: int | None = None
    ) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
        """Retained comparisons as bounded ``(sources, targets)`` batches.

        Spilled runs stream memory-mapped shards without materialising the
        pair list; in-memory runs stream their buffered chunks. Order is the
        exact emission order (identical to ``comparisons.pairs``).
        """
        comparisons = self.comparisons
        if isinstance(comparisons, ComparisonView):
            yield from comparisons.stream(batch_size)
            return
        pairs = comparisons.pairs
        step = batch_size if batch_size and batch_size > 0 else len(pairs) or 1
        for start in range(0, len(pairs), step):
            chunk = pairs[start : start + step]
            yield (
                np.fromiter((p[0] for p in chunk), dtype=np.int64, count=len(chunk)),
                np.fromiter((p[1] for p in chunk), dtype=np.int64, count=len(chunk)),
            )


def meta_block(
    blocks: BlockCollection,
    scheme: "str | WeightingScheme" = "JS",
    algorithm: "str | PruningAlgorithm" = "WEP",
    block_filtering_ratio: float | None = 0.8,
    backend: str = "optimized",
    execution: "ExecutionConfig | None" = None,
) -> MetaBlockingResult:
    """Restructure a redundancy-positive block collection.

    Parameters
    ----------
    blocks:
        The input blocks (Token Blocking output, typically after Block
        Purging), or a live
        :class:`~repro.blockprocessing.delta_index.DeltaEntityIndex` —
        materialised via its ``to_block_collection()`` first.
    scheme:
        Edge weighting scheme — one of ``ARCS, CBS, ECBS, JS, EJS``.
    algorithm:
        Pruning algorithm — one of ``CEP, CNP, WEP, WNP`` (prior art) or
        ``ReCNP, ReWNP, RcCNP, RcWNP`` (this paper's contributions).
    block_filtering_ratio:
        Block Filtering ratio applied before building the graph; ``None``
        disables filtering (the paper's "original" configurations).
    backend:
        ``"optimized"`` (Algorithm 3, default) or ``"original"``
        (Algorithm 2) edge weighting.
    execution:
        An :class:`~repro.core.execution.ExecutionConfig` holding every
        execution knob: worker count, node-partition and edge-chunk sizes,
        and the out-of-core ``spill_dir`` / ``memory_budget`` settings.
        When spilling is configured the retained comparisons go to
        ``.npy`` shards and :attr:`MetaBlockingResult.comparisons`
        memory-maps them back; results are bit-identical either way. The
        effective worker count and backend are recorded on the result.
    """
    if isinstance(blocks, DeltaEntityIndex):
        # A live streaming index: materialise the current collection so the
        # batch stages (cardinality sorting, Block Filtering) see immutable
        # blocks. Excluded blocks are veiled at query time only, so they
        # reappear here — batch runs decide purging for themselves.
        blocks = blocks.to_block_collection()
    try:
        backend_class = WEIGHTING_BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(WEIGHTING_BACKENDS))
        raise ValueError(f"unknown weighting backend {backend!r}; known: {known}")
    if execution is None:
        execution = ExecutionConfig()
    scheme = get_scheme(scheme)
    pruning = get_pruning(algorithm)
    if isinstance(execution.chunk_size, int):
        # Scope the override to this run: never mutate a caller-supplied
        # algorithm instance (the setting used to leak across calls).
        # ("auto" keeps the stream's default batch size.)
        pruning = copy.copy(pruning)
        pruning.chunk_size = execution.chunk_size

    filtered: BlockCollection | None = None
    filtering_seconds = 0.0
    if block_filtering_ratio is None:
        graph_input = blocks.sorted_by_cardinality()
    else:
        # Block Filtering sorts its input itself (Algorithm 1).
        with Timer() as timer:
            filtered = BlockFiltering(block_filtering_ratio).process(blocks)
        filtering_seconds = timer.elapsed
        graph_input = filtered
        # ||B|| walks every block: evaluate it only when the message is kept.
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "block filtering r=%.2f: ||B|| %d -> %d (%.3fs)",
                block_filtering_ratio,
                blocks.cardinality,
                filtered.cardinality,
                filtering_seconds,
            )

    workers = (
        resolve_workers(execution.parallel)
        if execution.parallel is not None
        else 1
    )
    if execution.resume_from is not None:
        # Only the parallel executor records (and can skip) per-chunk
        # completion; a serial resume would silently re-run everything.
        if workers <= 1:
            raise ValueError(
                "resume_from requires parallel execution (set parallel >= 2 "
                "on the ExecutionConfig)"
            )
        if not supports_parallel(pruning):
            raise ValueError(
                f"{pruning.name or type(pruning).__name__} does not support "
                "parallel execution, so its runs cannot be resumed"
            )
    if workers > 1 and not supports_parallel(pruning):
        warnings.warn(
            f"{pruning.name or type(pruning).__name__} does not support "
            f"parallel execution; ignoring parallel={execution.parallel!r} "
            "and running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = 1
    effective_backend = "serial"
    fault_stats: dict = {}
    phase_timings: dict = {}
    sink = execution.make_sink()
    if isinstance(sink, SpillSink) and not sink.resuming:
        # Write-ahead: lands in the run's checkpoint before any pruning, so
        # even a crash before the first adoption leaves a resumable record.
        sink.record_run_config(
            {
                "scheme": scheme.name,
                "algorithm": pruning.name,
                "block_filtering_ratio": block_filtering_ratio,
                "backend": backend,
                "execution": execution.to_dict(),
            }
        )
    with Timer() as timer:
        weighting = backend_class(graph_input, scheme)
        if workers > 1:
            executor = ParallelMetaBlockingExecutor(
                weighting, workers=workers, chunks=execution.chunks
            )
            try:
                comparisons = executor.prune(pruning, sink=sink)
                effective_backend = executor.backend
                fault_stats = dict(executor.stats)
                phase_timings = dict(executor.timings)
            finally:
                # Joins the pool threads on success, failure and
                # KeyboardInterrupt alike.
                executor.close()
        else:
            comparisons = run_pruning(pruning, weighting, sink)
    logger.debug(
        "%s/%s (%s backend, %d worker(s), %s): retained %d comparisons (%.3fs)",
        pruning.name,
        scheme.name,
        backend,
        workers,
        effective_backend,
        comparisons.cardinality,
        timer.elapsed,
    )
    return MetaBlockingResult(
        comparisons=comparisons,
        input_blocks=blocks,
        filtered_blocks=filtered,
        scheme=scheme,
        algorithm=pruning,
        filtering_seconds=filtering_seconds,
        pruning_seconds=timer.elapsed,
        effective_workers=workers,
        parallel_backend=effective_backend,
        execution=execution,
        fault_stats=fault_stats,
        phase_timings=phase_timings,
    )


def resume_run(
    blocks: BlockCollection,
    run_dir: "str | os.PathLike[str]",
) -> MetaBlockingResult:
    """Resume an interrupted spilled meta-blocking run.

    ``run_dir`` is the ``run-*`` directory of a run that crashed mid-spill
    (checkpoint present, no manifest). The scheme, algorithm, filtering
    ratio, weighting backend and execution settings are read back from the
    checkpoint's stored configuration; the caller supplies the *same* input
    blocks the original run was given. Completed chunks are validated and
    skipped; the final :class:`MetaBlockingResult` is bit-identical to an
    uninterrupted run's.

    Surfaced on the command line as ``repro metablock --resume RUN_DIR``.
    """
    state = read_run_checkpoint(run_dir)
    stored = state.get("config")
    if not stored:
        raise ValueError(
            f"checkpoint in {run_dir} records no run configuration; "
            "pass the original settings to meta_block(..., execution="
            "ExecutionConfig(resume_from=...)) instead"
        )
    execution = ExecutionConfig.from_dict(
        {
            **stored.get("execution", {}),
            # The reopened run directory replaces the original spill target.
            "spill_dir": None,
            "resume_from": str(run_dir),
        }
    )
    return meta_block(
        blocks,
        scheme=stored.get("scheme", "JS"),
        algorithm=stored.get("algorithm", "WEP"),
        block_filtering_ratio=stored.get("block_filtering_ratio", 0.8),
        backend=stored.get("backend", "optimized"),
        execution=execution,
    )


class MetaBlockingWorkflow:
    """Dataset-to-comparisons pipeline (paper Figure 7a).

    Parameters
    ----------
    blocking:
        A *redundancy-positive* blocking method; others are rejected because
        meta-blocking's weighting schemes are meaningless on their blocks.
    purging:
        Optional Block Purging pre-processing (the paper always applies it).
    block_filtering_ratio:
        Block Filtering ratio, or ``None`` to skip filtering.
    scheme / algorithm / backend / execution:
        Forwarded to :func:`meta_block`; ``execution`` is the
        :class:`~repro.core.execution.ExecutionConfig` holding every
        execution knob (workers, chunking, spilling).
    """

    def __init__(
        self,
        blocking: BlockingMethod,
        scheme: "str | WeightingScheme" = "JS",
        algorithm: "str | PruningAlgorithm" = "WEP",
        purging: BlockPurging | None = None,
        block_filtering_ratio: float | None = 0.8,
        backend: str = "optimized",
        execution: "ExecutionConfig | None" = None,
    ) -> None:
        if not blocking.redundancy_positive:
            raise ValueError(
                f"{type(blocking).__name__} is not redundancy-positive; "
                "Meta-blocking requires redundancy-positive input blocks "
                "(paper Section 2)"
            )
        self.blocking = blocking
        self.purging = purging if purging is not None else BlockPurging()
        self.block_filtering_ratio = block_filtering_ratio
        self.scheme = get_scheme(scheme)
        self.algorithm = get_pruning(algorithm)
        self.backend = backend
        self.execution = execution if execution is not None else ExecutionConfig()

    def to_config(self) -> dict:
        """A JSON-serialisable description of this workflow.

        Round-trips through :meth:`from_config`; blocking methods are
        referenced by their registry name, so only registered methods with
        default construction (plus TokenBlocking options) survive the trip.
        """
        from repro.blocking import BLOCKING_METHODS

        blocking_name = next(
            (
                name
                for name, cls in BLOCKING_METHODS.items()
                if type(self.blocking) is cls
            ),
            None,
        )
        if blocking_name is None:
            raise ValueError(
                f"{type(self.blocking).__name__} is not a registered "
                "blocking method"
            )
        return {
            "blocking": blocking_name,
            "scheme": self.scheme.name,
            "algorithm": self.algorithm.name,
            "block_filtering_ratio": self.block_filtering_ratio,
            "backend": self.backend,
            **self.execution.to_dict(),
        }

    @classmethod
    def from_config(cls, config: dict) -> "MetaBlockingWorkflow":
        """Build a workflow from a :meth:`to_config` dictionary."""
        from repro.blocking import BLOCKING_METHODS

        try:
            blocking_class = BLOCKING_METHODS[config["blocking"]]
        except KeyError:
            known = ", ".join(sorted(BLOCKING_METHODS))
            raise ValueError(
                f"unknown blocking method {config.get('blocking')!r}; "
                f"known: {known}"
            )
        return cls(
            blocking=blocking_class(),
            scheme=config.get("scheme", "JS"),
            algorithm=config.get("algorithm", "WEP"),
            block_filtering_ratio=config.get("block_filtering_ratio", 0.8),
            backend=config.get("backend", "optimized"),
            execution=ExecutionConfig.from_dict(config),
        )

    def run(self, dataset: ERDataset) -> MetaBlockingResult:
        """Execute every stage and return the result with stage timings."""
        with Timer() as timer:
            blocks = self.blocking.build(dataset)
        blocking_seconds = timer.elapsed
        debug = logger.isEnabledFor(logging.DEBUG)
        if debug:
            logger.debug(
                "%s built %d blocks, ||B||=%d (%.3fs)",
                type(self.blocking).__name__,
                len(blocks),
                blocks.cardinality,
                blocking_seconds,
            )
        with Timer() as timer:
            blocks = self.purging.process(blocks)
        purging_seconds = timer.elapsed
        if debug:
            logger.debug(
                "block purging kept %d blocks, ||B||=%d (%.3fs)",
                len(blocks),
                blocks.cardinality,
                purging_seconds,
            )
        result = meta_block(
            blocks,
            scheme=self.scheme,
            algorithm=self.algorithm,
            block_filtering_ratio=self.block_filtering_ratio,
            backend=self.backend,
            execution=self.execution,
        )
        result.stage_seconds["blocking"] = blocking_seconds
        result.stage_seconds["purging"] = purging_seconds
        return result
