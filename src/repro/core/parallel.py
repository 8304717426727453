"""Parallel meta-blocking executor (node-partitioned, all pruning families).

Meta-blocking is embarrassingly parallel over the blocking graph's nodes:
every node's neighbourhood is derived independently from the Entity Index,
and the distinct-edge stream can be partitioned by its *emitting endpoint*
(the lower id for unilateral graphs, the first-collection endpoint for
bilateral ones). This module fans those per-node array scans across a
thread pool. The execution backend follows from the worker count alone:

* ``"threads"`` — two or more workers on a graph of two or more nodes: a
  :class:`~concurrent.futures.ThreadPoolExecutor` over the chunk tasks.
  The columnar kernels spend much of their time inside GIL-releasing
  numpy ops, so chunks can overlap, with no serialization and no copy of
  the Entity Index; each pool thread checks out its own weighting-backend
  clone (built around the parent's Entity Index with
  ``EdgeWeighting._from_shared_index``) so the ScanCount scratch arrays
  are never shared between threads.
* ``"in-process"`` — the same chunk tasks run serially in the parent
  (``workers=1``, single-node graphs, or after the thread pool kept
  failing a chunk).

The resolved choice is readable from
:attr:`ParallelMetaBlockingExecutor.backend`. Threads give no crash
isolation: a crash in native code ends the whole run. A chunk past its
``chunk_timeout`` cannot be stopped either, so the timeout decides when
the chunk's retry starts, not how long the run takes.

The executor holds no per-algorithm code. Every pruning algorithm is
written once, as the chunk steps of
:class:`~repro.core.pruning.base.PruningRun`, and
:meth:`ParallelMetaBlockingExecutor.prune` hands the run itself as the
*mapper*: :meth:`~ParallelMetaBlockingExecutor.map_parts` runs a phase-one
step per node range and merges the parts owner-side, in range order;
:meth:`~ParallelMetaBlockingExecutor.map_pairs` runs a pair-producing step
per node range and feeds the sink in range order. Node ranges are balanced
by the Entity Index's per-node comparison mass (a prefix-sum cut over the
CSR membership sizes, :func:`partition_ranges_by_mass`), so power-law
graphs don't leave most workers idle behind one hub-heavy chunk. Range
boundaries never affect results, only balance: the output is an exact
reproduction of the serial algorithms — the retained comparison *set*
always, and with the default (optimized or vectorized) backends the pair
ordering too. Weight thresholds go through the same canonical reductions
as the serial run (per-emitting-node partial sums in node order, reduced
with one ``np.sum``), so they are bit-identical for every
worker/chunk/backend combination. The degree pass that dominates EJS
runtime is parallelized the same way
(:meth:`ParallelMetaBlockingExecutor.compute_degrees`).

Per-phase wall-clock is accumulated in :attr:`ParallelMetaBlockingExecutor.
timings` (``dispatch`` / ``weight`` / ``prune`` / ``merge`` seconds, reset
at each :meth:`~ParallelMetaBlockingExecutor.prune` call) and surfaced as
``MetaBlockingResult.phase_timings``: phase-one steps book ``weight``,
pair-producing steps (retention, whether it reads cached batches or
re-streams them) book ``prune``, owner-side merges and adoptions
``merge``.
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
from typing import Callable, Sequence

import numpy as np

from repro.core.edge_weighting import EdgeWeighting
from repro.core.faults import (
    RETRYABLE_FAILURES,
    ChunkTimeout,
    RetriesExhausted,
    fire_chunk_fault,
)
from repro.core.pruning.base import PruningAlgorithm, PruningRun
from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.sinks import ComparisonSink, SpillSink

Range = tuple[int, int]
#: A chunk task: runs one node range on a (per-thread) weighting backend.
ChunkTask = Callable[[EdgeWeighting, Range], object]
#: A pair-producing chunk's result: ``("pairs", sources, targets)``
#: arrays, or ``("shard", file_name, pair_count, crc)`` when the chunk
#: wrote its pairs straight to a spill shard.
ChunkPairs = tuple

#: Default retry budget per chunk before the executor degrades to in-process.
DEFAULT_MAX_RETRIES = 2

#: Default base (seconds) of the exponential retry backoff.
DEFAULT_BACKOFF = 0.1


def _concat(chunks: "list[np.ndarray]") -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=np.int64)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)


def _package(
    spill_dir: "str | None", sources: np.ndarray, targets: np.ndarray
) -> ChunkPairs:
    """Package one chunk's retained pairs for the owner.

    With a spill directory the pairs are written straight to a
    uniquely-named shard inside it — so the owner never holds every
    chunk's pairs at once — and only the shard name (plus its CRC, for
    checkpoint validation on resume) rides back. Otherwise the arrays are
    returned as-is.
    """
    if spill_dir is not None:
        name, checksum = SpillSink.write_shard(spill_dir, sources, targets)
        return ("shard", name, int(sources.size), checksum)
    return ("pairs", sources, targets)


#: Execution backends the executor resolves to (from the worker count).
PARALLEL_BACKENDS = ("threads", "in-process")


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
    """True iff the algorithm is written as chunk steps
    (:meth:`~repro.core.pruning.base.PruningAlgorithm.steps`), which the
    executor maps over node ranges."""
    return type(algorithm).steps is not PruningAlgorithm.steps


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
        runs the chunk tasks in-process (no pool).
    chunks:
        Number of contiguous node ranges to split the graph into; defaults
        to ``4 × workers`` so stragglers rebalance. Ranges are balanced by
        Entity Index comparison mass (:func:`partition_ranges_by_mass`).
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

    def __init__(
        self,
        weighting: EdgeWeighting,
        workers: int | None = None,
        chunks: int | None = None,
        max_retries: int | None = None,
        chunk_timeout: float | None = None,
        backoff: float | None = None,
    ) -> None:
        self.weighting = weighting
        self.workers = resolve_workers(workers)
        self.chunks = chunks if chunks and chunks > 0 else 4 * self.workers
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else int(max_retries)
        )
        self.chunk_timeout = chunk_timeout
        self.backoff = DEFAULT_BACKOFF if backoff is None else float(backoff)
        self.stats: dict = _new_fault_stats()
        self.timings: dict = _new_timings()
        #: The graph's nodes; the node ranges index into this list.
        self.nodes: list[int] = weighting.nodes()
        self._thread_pool: ThreadPoolExecutor | None = None
        self._clones: "queue.SimpleQueue | None" = None
        self._range_cache: "list[Range] | None" = None
        self._algorithm_name = ""
        #: Spill run directory of the current :meth:`prune`; when set,
        #: pair-producing chunks write their results as shards there.
        self._spill_dir: str | None = None
        self.backend = (
            "threads"
            if self.workers > 1 and len(self.nodes) > 1
            else "in-process"
        )

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
        self._clones = None

    def __enter__(self) -> "ParallelMetaBlockingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- chunk scheduling ----------------------------------------------------

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        """The persistent thread pool plus one weighting clone per thread.

        The clones are what make the pool safe with the ScanCount
        (optimized) weighting, whose reusable counter arrays are mutated by
        every neighbourhood scan: each submitted chunk checks a clone out
        of :attr:`_clones`, runs on it, and returns it — so no two threads
        ever share scratch state, while the Entity Index CSR arrays
        (read-only) stay genuinely shared, zero-copy.
        """
        if self._thread_pool is None:
            workers = min(self.workers, max(1, len(self.nodes)))
            self._thread_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-metablock"
            )
            clones: "queue.SimpleQueue" = queue.SimpleQueue()
            for _ in range(workers):
                clones.put(
                    type(self.weighting)._from_shared_index(
                        self.weighting.index, self.weighting.scheme
                    )
                )
            self._clones = clones
        return self._thread_pool

    def _thread_dispatch(self, payload: "tuple[str, ChunkTask, Range, int, int]"):
        """Run one chunk task on a checked-out weighting clone.

        The clone first takes the owner's EJS degrees (shared by
        reference; chunk tasks only read them). An injected fault fires
        once the clone is staged, so a ``delay`` stalls the task itself,
        exactly like a slow chunk would.
        """
        name, task, bounds, chunk, attempt = payload
        clones = self._clones
        assert clones is not None, "weighting clones missing (threads executor)"
        clone = clones.get()
        try:
            clone._degrees = self.weighting._degrees
            clone._total_edges = self.weighting._total_edges
            clone._degrees_array = self.weighting._degrees_array
            fire_chunk_fault(name, chunk, attempt, in_worker=True)
            return task(clone, bounds)
        finally:
            clones.put(clone)

    # -- supervised chunk mapping --------------------------------------------

    def _map_chunks(
        self,
        name: str,
        task: ChunkTask,
        bucket: str,
        skip: "frozenset[int] | set[int]" = frozenset(),
    ) -> list:
        """Run ``task`` over every node range, supervising the pool.

        ``name`` identifies the task to fault plans and supervision
        messages; the map's wall-clock, less its dispatch time, is booked
        in the ``bucket`` timing.

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
        ranges = self._ranges()
        if not ranges:
            return []
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
                        name, task, ranges, pending, attempts, results, futures
                    )
                else:
                    failure = self._in_process_attempt(
                        name, task, ranges, pending, attempts, results
                    )
                if failure is None:
                    continue  # every pending chunk completed
                index, error = failure
                self.stats["chunk_timeouts"] += 1
                self.stats["retries"] += 1
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    if not self._degrade(name, error):
                        raise RetriesExhausted(
                            f"chunk {index} of task {name!r} still failing "
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
        name: str,
        task: ChunkTask,
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
                    (name, task, ranges[index], index, attempts[index]),
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
        name: str,
        task: ChunkTask,
        ranges: Sequence[Range],
        pending: "list[int]",
        attempts: "dict[int, int]",
        results: "dict[int, object]",
    ) -> "tuple[int, Exception] | None":
        """Run the pending chunks serially in the owner, in chunk order."""
        for index in list(pending):
            try:
                fire_chunk_fault(name, index, attempts[index], in_worker=False)
                results[index] = task(self.weighting, ranges[index])
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

    def _degrade(self, name: str, error: Exception) -> bool:
        """Fall back from the thread pool to in-process after a chunk's
        retry budget; returns False when already in-process.

        Attempt counters are kept, but the in-process path always gets at
        least one attempt.
        """
        if self.backend != "threads":
            return False
        warnings.warn(
            f"the 'threads' backend kept failing on {name!r} ({error}); "
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
        """Estimated comparison mass per graph node (in :attr:`nodes` order).

        A node's scan cost is the total size of the member lists it meets
        (:meth:`~repro.blockprocessing.entity_index.EntityIndex.cooccurrence_lengths`):
        counted from the Entity Index block sizes, no neighbourhood is
        gathered.
        """
        nodes = np.asarray(self.nodes, dtype=np.int64)
        lengths = self.weighting.index.cooccurrence_lengths(nodes)
        return lengths.astype(np.float64)

    def _ranges(self) -> list[Range]:
        if self._range_cache is None:
            self._range_cache = partition_ranges_by_mass(
                self._node_masses(), self.chunks
            )
        return self._range_cache

    # -- the mapper of a pruning run -------------------------------------------

    def _phase_signature(self, name: str, num_chunks: int) -> dict:
        """Deterministic identity of a chunked pair phase.

        Stored in the spill checkpoint and matched on resume, so a resumed
        run cannot silently splice shards from a different configuration or
        partitioning into its output.
        """
        return {
            "task": name,
            "chunks": num_chunks,
            "algorithm": self._algorithm_name,
            "scheme": self.weighting.scheme.name,
            "num_entities": int(self.weighting.num_entities),
            "nodes": len(self.nodes),
            # The actual node partitioning: a resume under a different
            # split must be rejected, not spliced.
            "ranges": [[int(start), int(stop)] for start, stop in self._ranges()],
        }

    def map_parts(self, name: str, task: ChunkTask, merge: Callable):
        """Run a phase-one ``task`` over every node range and ``merge``
        its results owner-side, in range order."""
        self._prepare_weights()
        parts = self._map_chunks(name, task, "weight")
        with self._timed("merge"):
            return merge(parts)

    def map_pairs(self, name: str, task: Callable, sink: ComparisonSink) -> None:
        """Map a pair-producing ``task`` and feed the sink in chunk order.

        ``task(weighting, bounds)`` yields one range's retained
        ``(sources, targets)`` arrays; each chunk concatenates them and,
        in a spill run, writes them to a shard of its own.

        Chunk-written shards are adopted by name (the sink flushes its own
        buffer first, so manifest order equals serial emission order); array
        results are appended directly. On a :class:`SpillSink` every
        adoption is chunk-tagged, which makes it durable in the write-ahead
        checkpoint; chunks the sink reports as already completed (a resumed
        run) are skipped and their validated shards re-adopted in place.
        """
        self._prepare_weights()
        ranges = self._ranges()
        completed: dict[int, dict] = {}
        if isinstance(sink, SpillSink):
            completed = sink.begin_chunks(
                self._phase_signature(name, len(ranges))
            )
            if completed:
                self.stats["resumed_chunks"] += len(completed)
        spill_dir = self._spill_dir

        def chunk_pairs(weighting: EdgeWeighting, bounds: Range) -> ChunkPairs:
            sources: list[np.ndarray] = []
            targets: list[np.ndarray] = []
            for kept_sources, kept_targets in task(weighting, bounds):
                sources.append(kept_sources)
                targets.append(kept_targets)
            return _package(spill_dir, _concat(sources), _concat(targets))

        results = self._map_chunks(
            name, chunk_pairs, "prune", skip=frozenset(completed)
        )
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

    def compute_degrees(self) -> None:
        """Parallel degree pass (the EJS bootstrap that dominates its runtime).

        Populates the weighting backend's cached degrees exactly as its own
        serial ``_compute_degrees`` would; a no-op when already computed.
        """
        if self.weighting._degrees is not None:
            return
        nodes = self.nodes
        parts = self._map_chunks(
            "degrees",
            lambda weighting, bounds: list(
                weighting._degree_runs(nodes[bounds[0] : bounds[1]])
            ),
            "weight",
        )
        self.weighting._store_degrees(run for part in parts for run in part)

    def prune(
        self,
        algorithm: PruningAlgorithm,
        sink: "ComparisonSink | None" = None,
    ) -> ComparisonCollection:
        """Run a pruning algorithm's chunk steps across the pool.

        The retained comparison set is identical to
        ``algorithm.prune(weighting)``; raises :class:`ValueError` for
        algorithms not written as chunk steps (check
        :func:`supports_parallel` first).

        ``sink`` routes the retained edges: ``None`` buffers them in memory.
        Given a :class:`~repro.datamodel.sinks.SpillSink`, every
        pair-producing chunk writes its result straight to a shard in the
        sink's run directory; the owner adopts the shards in submission
        order, so the manifest reproduces the serial emission order
        exactly. On any failure the sink is aborted (shards and manifest
        removed) before the exception propagates.
        """
        if not supports_parallel(algorithm):
            raise ValueError(
                f"{type(algorithm).__name__} is not node-partitionable: "
                "parallel execution runs algorithms written as chunk steps"
            )
        self._algorithm_name = type(algorithm).__name__
        self.timings = _new_timings()
        if isinstance(sink, SpillSink):
            self._spill_dir = str(sink.directory)
        try:
            return PruningRun.execute(algorithm, self.weighting, sink, self)
        finally:
            self._spill_dir = None

    def _prepare_weights(self) -> None:
        """Make the backend scan-ready: parallel degree pass for EJS first
        (a no-op once the degrees are known)."""
        if self.weighting.scheme.uses_degrees:
            self.compute_degrees()
        self.weighting._prepare_scheme_inputs()


def parallel_prune(
    weighting: EdgeWeighting,
    algorithm: PruningAlgorithm,
    workers: int | None = None,
    chunks: int | None = None,
    sink: "ComparisonSink | None" = None,
) -> ComparisonCollection:
    """One-call parallel pruning; falls back to serial when unsupported."""
    if not supports_parallel(algorithm) or resolve_workers(workers) == 1:
        return algorithm.prune(weighting, sink)
    executor = ParallelMetaBlockingExecutor(
        weighting, workers=workers, chunks=chunks
    )
    try:
        return executor.prune(algorithm, sink=sink)
    finally:
        executor.close()
