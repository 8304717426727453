"""Parallel meta-blocking executor (node-partitioned, all pruning families).

Meta-blocking is embarrassingly parallel over the blocking graph's nodes:
every node's neighbourhood is derived independently from the Entity Index,
and the distinct-edge stream can be partitioned by its *emitting endpoint*
(the lower id for unilateral graphs, the first-collection endpoint for
bilateral ones). This module fans those per-node array scans across a
thread pool. The execution backend follows from the worker count alone:

* ``"threads"`` — two or more workers on a graph of two or more nodes: a
  :class:`~concurrent.futures.ThreadPoolExecutor` over the chunk kernels.
  The columnar kernels spend much of their time inside GIL-releasing
  numpy ops, so chunks can overlap, with no serialization and no copy of
  the Entity Index; each pool thread checks out its own weighting-backend
  clone (built around the parent's Entity Index with
  ``EdgeWeighting._from_shared_index``) so the ScanCount scratch arrays
  are never shared between threads.
* ``"in-process"`` — the same chunked code paths run serially in the
  parent (``workers=1``, single-node graphs, or after the thread pool kept
  failing a chunk).

The resolved choice is readable from
:attr:`ParallelMetaBlockingExecutor.backend`. Threads give no crash
isolation: a crash in native code ends the whole run. A chunk past its
``chunk_timeout`` cannot be stopped either, so the timeout decides when
the chunk's retry starts, not how long the run takes.

Chunk results are merged in submission order, which makes the output a
deterministic, exact reproduction of the serial algorithms: the retained
comparison *set* is always identical, and with the default (optimized or
vectorized) backends the pair ordering matches the serial output too.

All eight pruning schemes are covered. The node-centric family (CNP/WNP and
the redefined/reciprocal variants) partitions both phases by node. The
edge-centric family partitions the distinct-edge stream by emitting
endpoint: CEP keeps an exact local top-k per chunk (a superset of the global
top-k) and merges with one final exact selection; WEP runs two passes —
per-node weight sums reduced to the global mean, then a parallel retention
pass. The degree pass that dominates EJS runtime is parallelized the same
way (:meth:`ParallelMetaBlockingExecutor.compute_degrees`).

Inside the pool, every task reads its node range in chunks through the
backend's bulk kernel
(:meth:`~repro.core.edge_weighting.EdgeWeighting.neighborhood_chunks`, or
:func:`~repro.core.edge_weighting.weight_and_prune_chunks` for the emitted
edges) and the grouped segment kernels, exactly like the serial batched
path. Weight thresholds go through the same canonical reductions as
the serial batched code (per-emitting-node partial sums in node order,
reduced with one ``np.sum``), so they are bit-identical for every
worker/chunk/backend combination.

Two cross-backend optimisations ride on the same partitioning:

* **Fused weight+prune chunks** — when no spill directory is staged, the
  two-pass families (WEP and the redefined/reciprocal node-centric
  algorithms) run their phase 1 through the fused chunk tasks
  (:func:`~repro.core.edge_weighting.weight_and_prune_chunks`): each task
  weights every neighbourhood in its range *once*, derives the local
  criterion from the full segments and sends the range's emitted-edge
  slice back with it. The owner merges the global criterion and applies
  the retention masks to the cached arrays in submission order — same
  retained pairs, same emission order, half the gathers.
* **Degree-aware chunking** — with ``chunking="auto"`` (the default) node
  ranges are split by balancing the Entity Index's per-node comparison
  mass (a prefix-sum cut over the CSR membership sizes) instead of the
  node count, so power-law graphs don't leave most workers idle behind
  one hub-heavy chunk. ``chunking="even"`` keeps the historical
  equal-node-count split. Range boundaries never affect results, only
  balance.

Per-phase wall-clock is accumulated in :attr:`ParallelMetaBlockingExecutor.
timings` (``dispatch`` / ``weight`` / ``prune`` / ``merge`` seconds, reset
at each :meth:`~ParallelMetaBlockingExecutor.prune` call) and surfaced as
``MetaBlockingResult.phase_timings``.
"""

from __future__ import annotations

import os
import queue
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.faults import (
    RETRYABLE_FAILURES,
    ChunkTimeout,
    RetriesExhausted,
    fire_chunk_fault,
)
from repro.core.edge_stream import (
    EdgeBatch,
    TopKEdgeBuffer,
    directed_pair_keys,
    keys_contain,
    neighborhood_mean,
    segment_means,
    topk_per_segment,
)
from repro.core.edge_weighting import EdgeWeighting, weight_and_prune_chunks
from repro.core.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningAlgorithm,
    RedefinedCardinalityNodePruning,
    RedefinedWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.core.pruning.base import (
    cardinality_edge_threshold,
    cardinality_node_threshold,
    node_weight_sums,
    run_pruning,
)
from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.sinks import ComparisonSink, InMemorySink, SpillSink
from repro.utils.topk import TopKHeap

Comparison = tuple[int, int]
Range = tuple[int, int]
#: A pair-producing chunk task's result: ``("pairs", sources, targets)``
#: arrays, or ``("shard", file_name, pair_count, crc)`` when the task
#: wrote its pairs straight to a spill shard.
ChunkPairs = tuple

#: Default retry budget per chunk before the executor degrades to in-process.
DEFAULT_MAX_RETRIES = 2

#: Default base (seconds) of the exponential retry backoff.
DEFAULT_BACKOFF = 0.1


def _concat(chunks: "list[np.ndarray]", dtype=np.int64) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=dtype)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)

#: Pruning acronyms the executor can partition across workers.
PARALLEL_ALGORITHMS = frozenset(
    {"CEP", "WEP", "CNP", "WNP", "ReCNP", "ReWNP", "RcCNP", "RcWNP"}
)

#: Execution backends the executor resolves to (from the worker count).
PARALLEL_BACKENDS = ("threads", "in-process")

#: Node-range partitioning strategies (see :func:`partition_ranges_by_mass`).
CHUNKING_STRATEGIES = ("auto", "even")

#: Chunk tasks dominated by the weighting phase (neighbourhood gathers /
#: phase-1 criteria / degree passes); everything else is a pruning pass.
#: Used to attribute supervised map wall-clock to the timing buckets.
_WEIGHT_TASKS = frozenset(
    {
        "_chunk_nearest",
        "_chunk_thresholds",
        "_chunk_nearest_keys",
        "_chunk_threshold_array",
        "_chunk_edge_sums",
        "_chunk_degrees",
        "_chunk_neighborhoods",
        "_chunk_fused_keys",
        "_chunk_fused_thresholds",
        "_chunk_fused_sums",
    }
)


def _new_fault_stats() -> dict:
    """Zeroed supervision counters (one dict per executor)."""
    return {
        "retries": 0,
        "chunk_timeouts": 0,
        "resumed_chunks": 0,
        "degraded": [],
    }


def _new_timings() -> dict:
    """Zeroed per-phase wall-clock buckets (seconds)."""
    return {"dispatch": 0.0, "weight": 0.0, "prune": 0.0, "merge": 0.0}


def _discard_shard(future: Future, spill_dir: "str | None") -> None:
    """Delete the spill shard an abandoned chunk wrote; nothing adopts it."""
    if spill_dir is None or future.cancelled() or future.exception():
        return
    chunk = future.result()
    if isinstance(chunk, tuple) and isinstance(chunk[0], str):
        if chunk[0] == "shard":
            Path(spill_dir, chunk[1]).unlink(missing_ok=True)


def supports_parallel(algorithm: PruningAlgorithm) -> bool:
    """True iff the executor can partition this pruning algorithm."""
    return isinstance(
        algorithm,
        (
            CardinalityEdgePruning,
            WeightedEdgePruning,
            CardinalityNodePruning,
            WeightedNodePruning,
            RedefinedCardinalityNodePruning,
            RedefinedWeightedNodePruning,
        ),
    )


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count knob (None/0 → all *usable* cores).

    "Usable" honours the process's CPU affinity mask where the platform
    exposes one (``os.sched_getaffinity``) — inside a container or cgroup
    limited to a subset of the host's cores, ``os.cpu_count()`` would
    oversubscribe the pool several-fold.
    """
    if workers is None or workers <= 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            return os.cpu_count() or 1
    return workers


def partition_ranges(count: int, chunks: int) -> list[Range]:
    """Split ``range(count)`` into ``chunks`` contiguous, near-even ranges."""
    chunks = max(1, min(chunks, count)) if count else 0
    ranges: list[Range] = []
    base, extra = divmod(count, chunks) if chunks else (0, 0)
    start = 0
    for position in range(chunks):
        stop = start + base + (1 if position < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def partition_ranges_by_mass(
    masses: np.ndarray, chunks: int
) -> list[Range]:
    """Split ``range(len(masses))`` into contiguous ranges of near-equal
    total mass (a prefix-sum cut), instead of near-equal length.

    Every range is non-empty and the ranges exactly cover the input, so
    the split is a drop-in replacement for :func:`partition_ranges` — with
    power-law node masses it stops one hub-heavy chunk from serialising
    the whole map. Falls back to the even split when the total mass is not
    positive.
    """
    count = int(masses.size)
    chunks = max(1, min(chunks, count)) if count else 0
    if not chunks:
        return []
    prefix = np.cumsum(np.asarray(masses, dtype=np.float64))
    total = float(prefix[-1])
    if not total > 0:
        return partition_ranges(count, chunks)
    ranges: list[Range] = []
    start = 0
    for position in range(chunks):
        if position == chunks - 1:
            stop = count
        else:
            target = total * (position + 1) / chunks
            cut = int(np.searchsorted(prefix, target, side="left")) + 1
            # Clamp so this range is non-empty and enough nodes remain to
            # give every later range at least one.
            stop = min(max(cut, start + 1), count - (chunks - 1 - position))
        ranges.append((start, stop))
        start = stop
    return ranges


class ParallelMetaBlockingExecutor:
    """Fan edge weighting + pruning across a thread pool.

    Parameters
    ----------
    weighting:
        Any :class:`~repro.core.edge_weighting.EdgeWeighting` backend; its
        Entity Index CSR arrays are read, never copied, by every pool
        thread.
    workers:
        Thread count; ``None``/``0`` means one per usable CPU core, ``1``
        runs the chunked code path in-process (no pool).
    chunks:
        Number of contiguous node ranges to split the graph into; defaults
        to ``4 × workers`` so stragglers rebalance.
    chunking:
        ``"auto"`` (the default) balances the node ranges by Entity Index
        comparison mass (:func:`partition_ranges_by_mass`); ``"even"``
        keeps the historical equal-node-count split. Either way the
        retained comparisons are identical.
    max_retries:
        Retry budget per chunk: a chunk that exceeded ``chunk_timeout``
        (:class:`~repro.core.faults.ChunkTimeout`) is re-executed up to
        this many times before the executor *degrades* from the thread
        pool to in-process; once in-process and still failing, the
        supervisor raises :class:`~repro.core.faults.RetriesExhausted`.
        Deterministic task exceptions are never retried.
    chunk_timeout:
        Seconds the owner waits on one chunk before counting it as failed;
        ``None`` (the default) disables the timeout. The timed-out chunk's
        thread runs on in the background, and any shard it writes is
        deleted unadopted.
    backoff:
        Base of the exponential retry backoff (``backoff * 2**(attempt-1)``
        seconds before each retry).

    Executors that resolve to ``threads`` own a persistent thread pool:
    call :meth:`close` when done, or use the executor as a context
    manager. On the in-process backend ``close`` is a no-op.

    Supervision counters accumulate in :attr:`stats` (``retries``,
    ``chunk_timeouts``, ``resumed_chunks`` and the ``degraded`` backend
    trail) and are surfaced as ``MetaBlockingResult.fault_stats``.
    """

    _keys: np.ndarray | None
    _threshold_array: np.ndarray | None

    def __init__(
        self,
        weighting: EdgeWeighting,
        workers: int | None = None,
        chunks: int | None = None,
        max_retries: int | None = None,
        chunk_timeout: float | None = None,
        backoff: float | None = None,
        chunking: str | None = None,
    ) -> None:
        self.weighting = weighting
        self.workers = resolve_workers(workers)
        self.chunks = chunks if chunks and chunks > 0 else 4 * self.workers
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else int(max_retries)
        )
        self.chunk_timeout = chunk_timeout
        self.backoff = DEFAULT_BACKOFF if backoff is None else float(backoff)
        if chunking is None:
            chunking = "auto"
        if chunking not in CHUNKING_STRATEGIES:
            known = ", ".join(CHUNKING_STRATEGIES)
            raise ValueError(
                f"unknown chunking strategy {chunking!r}; known: {known}"
            )
        self.chunking = chunking
        self.stats: dict = _new_fault_stats()
        self.timings: dict = _new_timings()
        self._nodes: list[int] = weighting.nodes()
        self._thread_pool: ThreadPoolExecutor | None = None
        self._thread_shells: "queue.SimpleQueue | None" = None
        self._range_cache: "list[Range] | None" = None
        self._algorithm_name = ""
        self.backend = (
            "threads"
            if self.workers > 1 and len(self._nodes) > 1
            else "in-process"
        )
        self._reset_stage()

    @property
    def pool_backend(self) -> str:
        """The resolved execution backend (see :data:`PARALLEL_BACKENDS`)."""
        return self.backend

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the thread pool, waiting for every pool thread.

        Idempotent; a no-op on the in-process backend. Threads still
        running an abandoned (timed-out) chunk are waited for too, so once
        this returns no late shard can land in a spill run. Always reached
        via ``try/finally`` in :func:`parallel_prune` and
        :func:`repro.core.pipeline.meta_block`.
        """
        threads, self._thread_pool = self._thread_pool, None
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)
        self._thread_shells = None

    def __enter__(self) -> "ParallelMetaBlockingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def _worker_shell(
        cls, weighting: EdgeWeighting
    ) -> "ParallelMetaBlockingExecutor":
        """A minimal in-process executor for running chunk tasks on a pool
        thread (no pool; staging copied in by :meth:`_sync_shell`)."""
        shell = cls.__new__(cls)
        shell.weighting = weighting
        shell.workers = 1
        shell.chunks = 1
        shell.max_retries = DEFAULT_MAX_RETRIES
        shell.chunk_timeout = None
        shell.backoff = DEFAULT_BACKOFF
        shell.chunking = "even"
        shell.stats = _new_fault_stats()
        shell.timings = _new_timings()
        shell._nodes = weighting.nodes()
        shell._thread_pool = None
        shell._thread_shells = None
        shell._range_cache = None
        shell._algorithm_name = ""
        shell.backend = "in-process"
        shell._reset_stage()
        return shell

    # -- chunk scheduling ----------------------------------------------------

    def _reset_stage(self) -> None:
        """Clear the per-phase staging so reused executors never see stale
        criteria from a previous :meth:`prune` call."""
        self._k = 0
        self._keys = None
        self._threshold_array = None
        self._wep_threshold = 0.0
        self._conjunctive = False
        self._phase2_mode = ""  # "topk" | "threshold"
        #: Spill run directory; when set, pair-producing chunk tasks write
        #: their results as shards there instead of returning arrays.
        self._spill_dir: str | None = None

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        """The persistent thread pool plus one weighting clone per thread.

        The clones are what make the pool safe with the ScanCount
        (optimized) weighting, whose reusable counter arrays are mutated by
        every neighbourhood scan: each submitted chunk checks a clone out
        of :attr:`_thread_shells`, runs on it, and returns it — so no two
        threads ever share scratch state, while the Entity Index CSR
        arrays (read-only) stay genuinely shared, zero-copy.
        """
        if self._thread_pool is None:
            workers = min(self.workers, max(1, len(self._nodes)))
            self._thread_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-metablock"
            )
            shells: "queue.SimpleQueue" = queue.SimpleQueue()
            for _ in range(workers):
                clone = type(self.weighting)._from_shared_index(
                    self.weighting.index, self.weighting.scheme
                )
                shells.put(self._worker_shell(clone))
            self._thread_shells = shells
        return self._thread_pool

    def _sync_shell(self, shell: "ParallelMetaBlockingExecutor") -> None:
        """Copy the staged criteria (and EJS degrees) onto a thread shell.

        Arrays are shared by reference — they are only read inside the
        chunk tasks — so staging costs a few attribute writes per chunk.
        """
        shell._k = self._k
        shell._keys = self._keys
        shell._threshold_array = self._threshold_array
        shell._wep_threshold = self._wep_threshold
        shell._conjunctive = self._conjunctive
        shell._phase2_mode = self._phase2_mode
        shell._spill_dir = self._spill_dir
        weighting = self.weighting
        clone = shell.weighting
        clone._degrees = weighting._degrees
        clone._total_edges = weighting._total_edges
        clone._degrees_array = weighting._degrees_array

    def _thread_dispatch(self, payload: tuple[str, Range, int, int]):
        """Run one chunk task on a checked-out thread shell.

        An injected fault fires once the shell is staged, so a ``delay``
        stalls the task itself, exactly like a slow chunk would.
        """
        task, bounds, chunk, attempt = payload
        shells = self._thread_shells
        assert shells is not None, "worker shells missing (threads executor)"
        shell = shells.get()
        try:
            self._sync_shell(shell)
            fire_chunk_fault(task, chunk, attempt, in_worker=True)
            return getattr(shell, task)(bounds)
        finally:
            shells.put(shell)

    # -- supervised chunk mapping --------------------------------------------

    def _map_chunks(
        self,
        task: str,
        ranges: Sequence[Range],
        skip: "frozenset[int] | set[int]" = frozenset(),
    ) -> list:
        """Run ``task`` over every node range, supervising the pool.

        Results come back in submission order (``None`` for ``skip``-ped
        chunks — already-completed work on a resumed run). A chunk that
        exceeds :attr:`chunk_timeout`
        (:class:`~repro.core.faults.ChunkTimeout`) is retried with
        exponential backoff; every other chunk's future stays live and is
        awaited by the next attempt, never re-run. A chunk that exhausts
        :attr:`max_retries` degrades the executor from the thread pool to
        in-process; once in-process, the supervisor raises
        :class:`~repro.core.faults.RetriesExhausted`. Deterministic task
        exceptions propagate immediately, unretried.
        """
        if not ranges:
            return []
        bucket = "weight" if task in _WEIGHT_TASKS else "prune"
        started = time.perf_counter()
        dispatch_before = self.timings["dispatch"]
        pending = [index for index in range(len(ranges)) if index not in skip]
        results: dict[int, object] = {}
        attempts = {index: 0 for index in pending}
        # Pool futures of pending chunks, carried across attempts.
        futures: "dict[int, Future]" = {}
        try:
            while pending:
                if self.backend == "threads":
                    failure = self._threads_attempt(
                        task, ranges, pending, attempts, results, futures
                    )
                else:
                    failure = self._in_process_attempt(
                        task, ranges, pending, attempts, results
                    )
                if failure is None:
                    continue  # every pending chunk completed
                index, error = failure
                self.stats["chunk_timeouts"] += 1
                self.stats["retries"] += 1
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    if not self._degrade(task, error):
                        raise RetriesExhausted(
                            f"chunk {index} of task {task!r} still failing "
                            f"after {self.max_retries} retries and the "
                            "in-process fallback"
                        ) from error
                    # In-process re-runs every pending chunk itself.
                    self._abandon(futures)
                    continue  # no sleep before the in-process attempt
                delay = self.backoff * (2 ** (attempts[index] - 1))
                if delay > 0:
                    time.sleep(delay)
        finally:
            self._abandon(futures)
            # Submission overhead was credited to "dispatch" as it
            # happened; the rest of the map's wall-clock is the phase work.
            elapsed = time.perf_counter() - started
            dispatched = self.timings["dispatch"] - dispatch_before
            self.timings[bucket] += max(0.0, elapsed - dispatched)
        return [results.get(index) for index in range(len(ranges))]

    def _threads_attempt(
        self,
        task: str,
        ranges: Sequence[Range],
        pending: "list[int]",
        attempts: "dict[int, int]",
        results: "dict[int, object]",
        futures: "dict[int, Future]",
    ) -> "tuple[int, Exception] | None":
        """One pass of the thread pool over the pending chunks.

        Submits each pending chunk that has no live future, then waits on
        the futures in chunk order; completed chunks move from ``pending``
        into ``results``. Returns ``None`` when everything finished, else
        ``(chunk_index, ChunkTimeout)`` for the first chunk that overran
        :attr:`chunk_timeout` — its future is abandoned, the others stay
        in ``futures`` for the next attempt.
        """
        pool = self._ensure_thread_pool()
        submit_started = time.perf_counter()
        for index in pending:
            if index not in futures:
                futures[index] = pool.submit(
                    self._thread_dispatch,
                    (task, ranges[index], index, attempts[index]),
                )
        self.timings["dispatch"] += time.perf_counter() - submit_started
        for index in list(pending):
            try:
                results[index] = futures[index].result(
                    timeout=self.chunk_timeout
                )
            except FuturesTimeout:
                self._abandon({index: futures.pop(index)})
                return index, ChunkTimeout(
                    f"chunk {index} exceeded the "
                    f"{self.chunk_timeout:g}s chunk timeout"
                )
            del futures[index]
            pending.remove(index)
        return None

    def _in_process_attempt(
        self,
        task: str,
        ranges: Sequence[Range],
        pending: "list[int]",
        attempts: "dict[int, int]",
        results: "dict[int, object]",
    ) -> "tuple[int, Exception] | None":
        """Run the pending chunks serially in the owner, in chunk order."""
        for index in list(pending):
            try:
                fire_chunk_fault(task, index, attempts[index], in_worker=False)
                results[index] = getattr(self, task)(ranges[index])
            except RETRYABLE_FAILURES as error:
                return index, error
            pending.remove(index)
        return None

    def _abandon(self, futures: "dict[int, Future]") -> None:
        """Stop waiting on ``futures`` (and forget them).

        Queued chunks are cancelled. A running chunk cannot be stopped, so
        it finishes in the background and the shard it writes, if any, is
        deleted as soon as it completes — no other copy of the chunk can
        adopt it. :meth:`close` waits for those threads.
        """
        spill_dir = self._spill_dir
        for future in futures.values():
            future.cancel()
            future.add_done_callback(
                lambda done: _discard_shard(done, spill_dir)
            )
        futures.clear()

    def _degrade(self, task: str, error: Exception) -> bool:
        """Fall back from the thread pool to in-process after a chunk's
        retry budget; returns False when already in-process.

        Attempt counters are kept, but the in-process path always gets at
        least one attempt.
        """
        if self.backend != "threads":
            return False
        warnings.warn(
            f"the 'threads' backend kept failing on {task!r} ({error}); "
            "degrading to 'in-process'",
            RuntimeWarning,
            stacklevel=5,
        )
        self.stats["degraded"].append("in-process")
        self.backend = "in-process"
        return True

    @contextmanager
    def _timed(self, bucket: str):
        """Accumulate a block's wall-clock into one timing bucket."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timings[bucket] += time.perf_counter() - started

    def _node_masses(self) -> np.ndarray:
        """Estimated comparison mass per graph node (in ``_nodes`` order).

        A node's scan cost is the total size of the member lists it meets
        (:meth:`~repro.blockprocessing.entity_index.EntityIndex.cooccurrence_lengths`):
        counted from the Entity Index block sizes, no neighbourhood is
        gathered.
        """
        nodes = np.asarray(self._nodes, dtype=np.int64)
        lengths = self.weighting.index.cooccurrence_lengths(nodes)
        return lengths.astype(np.float64)

    def _ranges(self) -> list[Range]:
        if self._range_cache is None:
            if self.chunking == "auto":
                self._range_cache = partition_ranges_by_mass(
                    self._node_masses(), self.chunks
                )
            else:
                self._range_cache = partition_ranges(
                    len(self._nodes), self.chunks
                )
        return self._range_cache

    def _prepare_weights(self) -> None:
        """Make the backend scan-ready: parallel degree pass for EJS first."""
        if self.weighting.scheme.uses_degrees:
            self.compute_degrees()
        self.weighting._prepare_scheme_inputs()

    # -- chunk tasks (run on pool threads, or in-process) --------------------

    def _chunk_nearest(self, bounds: Range) -> dict[int, set[int]]:
        """Phase 1 of (Re/Rc)CNP for one node range: top-k neighbour sets."""
        weighting, k = self.weighting, self._k
        out: dict[int, set[int]] = {}
        for entity in self._nodes[bounds[0] : bounds[1]]:
            heap: TopKHeap[int] = TopKHeap(k)
            for other, weight in weighting.neighborhood(entity):
                heap.push(weight, other)
            out[entity] = heap.items()
        return out

    def _chunk_thresholds(self, bounds: Range) -> dict[int, float]:
        """Phase 1 of (Re/Rc)WNP for one node range: mean neighbourhood weight."""
        weighting = self.weighting
        out: dict[int, float] = {}
        for entity in self._nodes[bounds[0] : bounds[1]]:
            _, weights = weighting.neighborhood_arrays(entity)
            if weights.size:
                out[entity] = neighborhood_mean(weights)
        return out

    def _node_groups(self, bounds: Range):
        """The range's non-empty neighbourhoods as segment-array groups."""
        for batch in self.weighting.neighborhood_chunks(
            self._nodes[bounds[0] : bounds[1]]
        ):
            yield batch.node_group()

    def _emitted_batches(self, bounds: Range):
        """The range's emitted distinct edges, chunk by chunk."""
        weighting = self.weighting
        for fused in weight_and_prune_chunks(
            weighting, weighting.emitters(self._nodes[bounds[0] : bounds[1]])
        ):
            yield fused.emitted

    def _chunk_nearest_keys(self, bounds: Range) -> np.ndarray:
        """Array phase 1 of (Re/Rc)CNP: directed top-k keys for one range."""
        k = self._k
        num_entities = self.weighting.num_entities
        chunks: list[np.ndarray] = []
        for group in self._node_groups(bounds):
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
        return np.concatenate(chunks)

    def _chunk_threshold_array(self, bounds: Range) -> tuple[np.ndarray, np.ndarray]:
        """Array phase 1 of (Re/Rc)WNP: ``(entities, mean weights)`` arrays."""
        entities: list[np.ndarray] = []
        means: list[np.ndarray] = []
        for group in self._node_groups(bounds):
            entities.append(group.entities)
            means.append(segment_means(group))
        if not entities:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return np.concatenate(entities), np.concatenate(means)

    def _emit_pairs(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> ChunkPairs:
        """Package one chunk's retained pairs for the owner.

        When a spill directory is staged the pairs are written straight to a
        uniquely-named shard inside it — so the owner never holds every
        chunk's pairs at once — and only the shard name (plus its CRC, for
        checkpoint validation on resume) rides back. Otherwise the canonical
        arrays are returned as-is.
        """
        if self._spill_dir is not None:
            name, checksum = SpillSink.write_shard(
                self._spill_dir, sources, targets
            )
            return ("shard", name, int(sources.size), checksum)
        return ("pairs", sources, targets)

    def _chunk_original_cnp(self, bounds: Range) -> ChunkPairs:
        """Original CNP for one node range (directed retention, repeats kept)."""
        k = self._k
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for group in self._node_groups(bounds):
            selected, segments = topk_per_segment(group, k)
            entities = group.entities[segments]
            neighbors = group.neighbors[selected]
            sources.append(np.minimum(entities, neighbors))
            targets.append(np.maximum(entities, neighbors))
        return self._emit_pairs(_concat(sources), _concat(targets))

    def _chunk_original_wnp(self, bounds: Range) -> ChunkPairs:
        """Original WNP for one node range (directed retention, repeats kept)."""
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for group in self._node_groups(bounds):
            counts = group.counts
            keep = group.weights >= np.repeat(segment_means(group), counts)
            entities = np.repeat(group.entities, counts)[keep]
            neighbors = group.neighbors[keep]
            sources.append(np.minimum(entities, neighbors))
            targets.append(np.maximum(entities, neighbors))
        return self._emit_pairs(_concat(sources), _concat(targets))

    def _chunk_phase2(self, bounds: Range) -> ChunkPairs:
        """Phase 2 of the redefined/reciprocal algorithms for one node range.

        Streams the range's distinct edges chunk by chunk (one retention
        mask per chunk, not per node) and applies the disjunctive
        (redefined) or conjunctive (reciprocal) condition against the
        staged phase-1 arrays.
        """
        num_entities = self.weighting.num_entities
        conjunctive = self._conjunctive
        kept_sources: list[np.ndarray] = []
        kept_targets: list[np.ndarray] = []
        for batch in self._emitted_batches(bounds):
            sources, targets, weights = (
                batch.sources,
                batch.targets,
                batch.weights,
            )
            if self._phase2_mode == "threshold":
                thresholds = self._threshold_array
                assert thresholds is not None
                left = weights >= thresholds[sources]
                right = weights >= thresholds[targets]
            else:
                keys = self._keys
                assert keys is not None
                left = keys_contain(
                    keys, directed_pair_keys(sources, targets, num_entities)
                )
                right = keys_contain(
                    keys, directed_pair_keys(targets, sources, num_entities)
                )
            keep = (left & right) if conjunctive else (left | right)
            kept_sources.append(sources[keep])
            kept_targets.append(targets[keep])
        return self._emit_pairs(_concat(kept_sources), _concat(kept_targets))

    def _chunk_cep(self, bounds: Range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact local top-k of one range's emitted edges (a superset of the
        global top-k's intersection with the range), one push per chunk."""
        buffer = TopKEdgeBuffer(self._k)
        for batch in self._emitted_batches(bounds):
            buffer.push(batch)
        best = buffer.top()
        return best.sources, best.targets, best.weights

    def _chunk_edge_sums(self, bounds: Range) -> tuple[np.ndarray, int]:
        """WEP pass 1: per-emitting-node weight sums (node order) + edge count."""
        return node_weight_sums(
            self.weighting, self._nodes[bounds[0] : bounds[1]]
        )

    def _chunk_wep_retain(self, bounds: Range) -> ChunkPairs:
        """WEP pass 2: retain one range's emitted edges over the staged mean,
        one mask per chunk."""
        threshold = self._wep_threshold
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for batch in self._emitted_batches(bounds):
            keep = batch.weights >= threshold
            sources.append(batch.sources[keep])
            targets.append(batch.targets[keep])
        return self._emit_pairs(_concat(sources), _concat(targets))

    def _fused_range(self, bounds: Range):
        """The range's neighbourhoods as fused chunks (weighted once each)."""
        return weight_and_prune_chunks(
            self.weighting, self._nodes[bounds[0] : bounds[1]]
        )

    def _chunk_fused_keys(
        self, bounds: Range
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused (Re/Rc)CNP phase 1: the range's directed top-k keys *and*
        its emitted-edge slice, from a single gather per neighbourhood.

        Returns ``(keys, sources, targets, weights)``; the owner merges the
        global key set and applies the phase-2 retention to the returned
        arrays, so the graph is never gathered a second time.
        """
        k = self._k
        num_entities = self.weighting.num_entities
        key_parts: list[np.ndarray] = []
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for fused in self._fused_range(bounds):
            selected, segments = topk_per_segment(fused.group, k)
            if selected.size:
                key_parts.append(
                    directed_pair_keys(
                        fused.group.entities[segments],
                        fused.group.neighbors[selected],
                        num_entities,
                    )
                )
            sources.append(fused.emitted.sources)
            targets.append(fused.emitted.targets)
            weights.append(fused.emitted.weights)
        return (
            _concat(key_parts),
            _concat(sources),
            _concat(targets),
            _concat(weights, dtype=np.float64),
        )

    def _chunk_fused_thresholds(
        self, bounds: Range
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused (Re/Rc)WNP phase 1: ``(entities, means)`` plus the range's
        emitted-edge slice, from a single gather per neighbourhood."""
        entities: list[np.ndarray] = []
        means: list[np.ndarray] = []
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for fused in self._fused_range(bounds):
            entities.append(fused.group.entities)
            means.append(segment_means(fused.group))
            sources.append(fused.emitted.sources)
            targets.append(fused.emitted.targets)
            weights.append(fused.emitted.weights)
        return (
            _concat(entities),
            _concat(means, dtype=np.float64),
            _concat(sources),
            _concat(targets),
            _concat(weights, dtype=np.float64),
        )

    def _chunk_fused_sums(
        self, bounds: Range
    ) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
        """Fused WEP pass 1: the range's per-node weight sums (node order,
        bit-identical to ``_chunk_edge_sums``) plus its emitted-edge slice,
        from a single gather per neighbourhood."""
        sums: list[np.ndarray] = []
        count = 0
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for fused in self._fused_range(bounds):
            node_sums, edges = fused.emitted_node_sums()
            if edges:
                sums.append(node_sums)
                count += edges
            sources.append(fused.emitted.sources)
            targets.append(fused.emitted.targets)
            weights.append(fused.emitted.weights)
        return (
            _concat(sums, dtype=np.float64),
            count,
            _concat(sources),
            _concat(targets),
            _concat(weights, dtype=np.float64),
        )

    def _chunk_degrees(self, bounds: Range) -> list[tuple[np.ndarray, np.ndarray]]:
        """Node degrees for one range (pure graph statistic, weight-free)."""
        return list(
            self.weighting._degree_runs(self._nodes[bounds[0] : bounds[1]])
        )

    # -- parallel counterparts of the serial algorithms ----------------------

    def _phase_signature(self, task: str, num_chunks: int) -> dict:
        """Deterministic identity of a chunked pair phase.

        Stored in the spill checkpoint and matched on resume, so a resumed
        run cannot silently splice shards from a different configuration or
        partitioning into its output.
        """
        return {
            "task": task,
            "chunks": num_chunks,
            "algorithm": self._algorithm_name,
            "scheme": self.weighting.scheme.name,
            "num_entities": int(self.weighting.num_entities),
            "nodes": len(self._nodes),
            # The actual node partitioning: mass-balanced and even splits
            # produce different shard boundaries, so a resume under a
            # different chunking strategy must be rejected, not spliced.
            "ranges": [[int(start), int(stop)] for start, stop in self._ranges()],
        }

    def _run_pair_map(
        self, task: str, ranges: Sequence[Range], sink: ComparisonSink
    ) -> None:
        """Map the pair-producing phase and feed the sink in chunk order.

        Chunk-written shards are adopted by name (the sink flushes its own
        buffer first, so manifest order equals serial emission order); array
        results are appended directly. On a :class:`SpillSink` every
        adoption is chunk-tagged, which makes it durable in the write-ahead
        checkpoint; chunks the sink reports as already completed (a resumed
        run) are skipped and their validated shards re-adopted in place.
        """
        completed: dict[int, dict] = {}
        if isinstance(sink, SpillSink):
            completed = sink.begin_chunks(
                self._phase_signature(task, len(ranges))
            )
            if completed:
                self.stats["resumed_chunks"] += len(completed)
        results = self._map_chunks(task, ranges, skip=frozenset(completed))
        with self._timed("merge"):
            for index in range(len(ranges)):
                if index in completed:
                    assert isinstance(sink, SpillSink)
                    sink.readopt_chunk(index)
                    continue
                chunk = results[index]
                assert chunk is not None
                if chunk[0] == "shard":
                    assert isinstance(sink, SpillSink)
                    sink.adopt_shard(
                        chunk[1], chunk[2], chunk=index, checksum=chunk[3]
                    )
                else:
                    sink.append(chunk[1], chunk[2])

    def _merge_dicts(self, results: Iterable[dict]) -> dict:
        merged: dict = {}
        for chunk in results:
            merged.update(chunk)
        return merged

    def nearest_neighbor_sets(self, k: int) -> dict[int, set[int]]:
        """Parallel :func:`repro.core.pruning.redefined.nearest_neighbor_sets`."""
        self._prepare_weights()
        self._k = k
        return self._merge_dicts(self._map_chunks("_chunk_nearest", self._ranges()))

    def neighborhood_thresholds(self) -> dict[int, float]:
        """Parallel :func:`repro.core.pruning.redefined.neighborhood_thresholds`."""
        self._prepare_weights()
        return self._merge_dicts(
            self._map_chunks("_chunk_thresholds", self._ranges())
        )

    def compute_degrees(self) -> None:
        """Parallel degree pass (the EJS bootstrap that dominates its runtime).

        Populates the weighting backend's cached degrees exactly as its own
        serial ``_compute_degrees`` would; a no-op when already computed.
        """
        if self.weighting._degrees is not None:
            return
        self.weighting._store_degrees(
            run
            for chunk in self._map_chunks("_chunk_degrees", self._ranges())
            for run in chunk
        )

    def mean_edge_weight(self) -> float:
        """Parallel two-pass counterpart of
        :func:`repro.core.pruning.base.mean_edge_weight` (bit-identical)."""
        parts = self._map_chunks("_chunk_edge_sums", self._ranges())
        if not parts:
            return 0.0
        sums = np.concatenate([chunk_sums for chunk_sums, _ in parts])
        count = sum(chunk_count for _, chunk_count in parts)
        if count == 0:
            return 0.0
        return float(np.sum(sums)) / count

    def prune(
        self,
        algorithm: PruningAlgorithm,
        sink: "ComparisonSink | None" = None,
    ) -> ComparisonCollection:
        """Run a pruning algorithm across the pool.

        The retained comparison set is identical to
        ``algorithm.prune(weighting)``; raises :class:`ValueError` for
        algorithms the executor cannot partition (check
        :func:`supports_parallel` first).

        ``sink`` routes the retained edges: ``None`` buffers them in memory
        (the historical behaviour). Given a
        :class:`~repro.datamodel.sinks.SpillSink`, its run directory is
        staged to the chunk tasks and every pair-producing one writes its
        result straight to a per-chunk shard there; the owner adopts the
        shards in submission order, so the manifest reproduces the serial
        emission order exactly. On any failure the sink is aborted (shards
        and manifest removed) before the exception propagates.
        """
        if not supports_parallel(algorithm):
            raise ValueError(
                f"{type(algorithm).__name__} is not node-partitionable; "
                f"parallel execution supports {sorted(PARALLEL_ALGORITHMS)}"
            )
        if (
            isinstance(sink, SpillSink)
            and sink.resuming
            and isinstance(algorithm, CardinalityEdgePruning)
        ):
            # Raised before the abort-on-failure scope so the checkpoint
            # directory survives the (usage) error.
            raise ValueError(
                "CEP merges its global top-k owner-side, so it has no "
                "chunk-level completion records; checkpoint resume is not "
                "supported for CEP"
            )
        collector = sink if sink is not None else InMemorySink()
        self._algorithm_name = type(algorithm).__name__
        self._reset_stage()
        self.timings = _new_timings()
        if isinstance(collector, SpillSink):
            self._spill_dir = str(collector.directory)
        try:
            self._prune_into(algorithm, collector)
        except BaseException:
            collector.abort()
            raise
        finally:
            self._spill_dir = None
        return collector.finalize(self.weighting.num_entities)

    def _prune_into(
        self, algorithm: PruningAlgorithm, sink: ComparisonSink
    ) -> None:
        """Stage the algorithm's criteria and stream chunk results into
        ``sink`` (the family dispatch behind :meth:`prune`)."""
        self._prepare_weights()
        ranges = self._ranges()
        # The fused single-gather paths cache each range's emitted edges at
        # the owner, so they are reserved for non-spilling runs (spill runs
        # keep bounded owner memory and chunk-level resume records) and
        # can be disabled per algorithm via ``algorithm.fused``.
        fused = self._spill_dir is None and getattr(algorithm, "fused", True)
        if isinstance(algorithm, CardinalityEdgePruning):
            self._k = (
                algorithm.k
                if algorithm.k is not None
                else cardinality_edge_threshold(self.weighting.index)
            )
            # Chunk top-k results are K-bounded, so they always return as
            # arrays and merge owner-side before one bounded append.
            merged = TopKEdgeBuffer(self._k)
            for sources, targets, weights in self._map_chunks("_chunk_cep", ranges):
                with self._timed("merge"):
                    merged.push(EdgeBatch(sources, targets, weights))
            with self._timed("merge"):
                sink.append_pairs(merged.pairs())
            return
        if isinstance(algorithm, WeightedEdgePruning):
            if algorithm.threshold is None and fused:
                parts = self._map_chunks("_chunk_fused_sums", ranges)
                with self._timed("merge"):
                    sums = [part[0] for part in parts if part[1]]
                    count = sum(part[1] for part in parts)
                    threshold = (
                        float(np.sum(np.concatenate(sums))) / count
                        if count
                        else 0.0
                    )
                    for _, _, sources, targets, weights in parts:
                        keep = weights >= threshold
                        sink.append(sources[keep], targets[keep])
                return
            self._wep_threshold = (
                algorithm.threshold
                if algorithm.threshold is not None
                else self.mean_edge_weight()
            )
            self._run_pair_map("_chunk_wep_retain", ranges, sink)
            return
        if isinstance(algorithm, RedefinedCardinalityNodePruning):
            self._k = (
                algorithm.k
                if algorithm.k is not None
                else cardinality_node_threshold(self.weighting.index)
            )
            num_entities = self.weighting.num_entities
            conjunctive = algorithm.conjunctive
            if fused:
                parts = self._map_chunks("_chunk_fused_keys", ranges)
                with self._timed("merge"):
                    key_parts = [part[0] for part in parts if part[0].size]
                    keys = (
                        np.sort(np.concatenate(key_parts))
                        if key_parts
                        else np.empty(0, dtype=np.int64)
                    )
                    for _, sources, targets, _ in parts:
                        in_left = keys_contain(
                            keys,
                            directed_pair_keys(sources, targets, num_entities),
                        )
                        in_right = keys_contain(
                            keys,
                            directed_pair_keys(targets, sources, num_entities),
                        )
                        keep = (
                            (in_left & in_right)
                            if conjunctive
                            else (in_left | in_right)
                        )
                        sink.append(sources[keep], targets[keep])
                return
            keys = [
                chunk
                for chunk in self._map_chunks("_chunk_nearest_keys", ranges)
                if chunk.size
            ]
            self._keys = (
                np.sort(np.concatenate(keys))
                if keys
                else np.empty(0, dtype=np.int64)
            )
            self._conjunctive = conjunctive
            self._phase2_mode = "topk"
            self._run_pair_map("_chunk_phase2", ranges, sink)
            return
        if isinstance(algorithm, RedefinedWeightedNodePruning):
            conjunctive = algorithm.conjunctive
            if fused:
                parts = self._map_chunks("_chunk_fused_thresholds", ranges)
                with self._timed("merge"):
                    thresholds = np.full(
                        self.weighting.num_entities, np.inf, dtype=np.float64
                    )
                    for entities, values, _, _, _ in parts:
                        thresholds[entities] = values
                    for _, _, sources, targets, weights in parts:
                        over_left = weights >= thresholds[sources]
                        over_right = weights >= thresholds[targets]
                        keep = (
                            (over_left & over_right)
                            if conjunctive
                            else (over_left | over_right)
                        )
                        sink.append(sources[keep], targets[keep])
                return
            thresholds = np.full(
                self.weighting.num_entities, np.inf, dtype=np.float64
            )
            for entities, values in self._map_chunks(
                "_chunk_threshold_array", ranges
            ):
                thresholds[entities] = values
            self._threshold_array = thresholds
            self._conjunctive = conjunctive
            self._phase2_mode = "threshold"
            self._run_pair_map("_chunk_phase2", ranges, sink)
            return
        if isinstance(algorithm, CardinalityNodePruning):
            self._k = (
                algorithm.k
                if algorithm.k is not None
                else cardinality_node_threshold(self.weighting.index)
            )
            self._run_pair_map("_chunk_original_cnp", ranges, sink)
            return
        assert isinstance(algorithm, WeightedNodePruning)
        self._run_pair_map("_chunk_original_wnp", ranges, sink)

    def map_neighborhoods(self) -> "dict[int, list[tuple[int, float]]]":
        """All node neighbourhoods, computed across the pool.

        A bulk building block for consumers outside the pruning registry
        (progressive/supervised extensions); equivalent to
        ``dict(weighting.iter_neighborhoods())``.
        """
        self._prepare_weights()
        return self._merge_dicts(
            self._map_chunks("_chunk_neighborhoods", self._ranges())
        )

    def _chunk_neighborhoods(self, bounds: Range):
        weighting = self.weighting
        return {
            entity: weighting.neighborhood(entity)
            for entity in self._nodes[bounds[0] : bounds[1]]
        }


#: Backwards-compatible name from when only the node-centric family was
#: supported; same class, full coverage.
ParallelNodeCentricExecutor = ParallelMetaBlockingExecutor


def parallel_prune(
    weighting: EdgeWeighting,
    algorithm: PruningAlgorithm,
    workers: int | None = None,
    chunks: int | None = None,
    sink: "ComparisonSink | None" = None,
    chunking: str | None = None,
) -> ComparisonCollection:
    """One-call parallel pruning; falls back to serial when unsupported."""
    if not supports_parallel(algorithm) or resolve_workers(workers) == 1:
        return run_pruning(algorithm, weighting, sink)
    executor = ParallelMetaBlockingExecutor(
        weighting,
        workers=workers,
        chunks=chunks,
        chunking=chunking,
    )
    try:
        return executor.prune(algorithm, sink=sink)
    finally:
        executor.close()
