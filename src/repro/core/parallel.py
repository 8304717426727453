"""Parallel meta-blocking executor (node-partitioned, all pruning families).

Meta-blocking is embarrassingly parallel over the blocking graph's nodes:
every node's neighbourhood is derived independently from the Entity Index,
and the distinct-edge stream can be partitioned by its *emitting endpoint*
(the lower id for unilateral graphs, the first-collection endpoint for
bilateral ones). This module fans those per-node array scans across a
worker pool, through one of four interchangeable execution backends:

* ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor` over
  the same chunk kernels. The columnar kernels spend their time inside
  GIL-releasing numpy ops, so chunks run truly in parallel with zero
  serialization, zero fork/spawn cost and zero shared-memory staging; each
  pool thread checks out its own weighting-backend clone (built around the
  parent's Entity Index with ``EdgeWeighting._from_shared_index``) so the
  ScanCount scratch arrays are never shared between threads.
* ``"fork"`` — worker processes are forked, so the weighting backend — and
  with it the Entity Index's CSR arrays — is shared copy-on-write with the
  parent; the only pickled traffic is the ``(start, stop)`` range per task
  and the per-chunk results.
* ``"shm-spawn"`` — for platforms without ``fork`` (Windows, macOS
  defaults): the CSR arrays are published once into a named
  ``multiprocessing.shared_memory`` segment
  (:meth:`~repro.blockprocessing.entity_index.EntityIndex.to_shared`), and
  each spawned worker attaches zero-copy ``np.ndarray`` views and rebuilds
  the *same* weighting backend class around them
  (``EdgeWeighting._from_shared_index``). Per-phase criteria (top-k keys,
  node thresholds, EJS degrees) travel through a second, short-lived
  segment staged per map call. The spawn pool persists for the executor's
  lifetime, so worker startup is paid once, not per phase.
* ``"in-process"`` — the same chunked code paths run serially in the
  parent (``workers=1``, single-node graphs, or by request).

The backend is picked automatically (``threads``, which every platform
offers) and can be overridden via the ``backend`` argument —
surfaced as ``meta_block(parallel_backend=)`` and the CLI's
``--parallel-backend``. Falling back emits a single :class:`RuntimeWarning`
at executor construction (never per chunk); the resolved choice is readable
from :attr:`ParallelMetaBlockingExecutor.backend`.

Segment lifecycle: the executor owns its shared segments and guarantees
unlinking on success, worker crash and ``KeyboardInterrupt`` alike — the
per-phase stage pack is destroyed in a ``finally`` around each map, and the
index segment in :meth:`ParallelMetaBlockingExecutor.close` (also wired to
context-manager exit and a ``__del__`` backstop). Workers only ever attach
and close; they never take resource-tracker ownership.

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

Inside the workers, every task reads its node range in chunks through the
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
  (:func:`~repro.core.edge_weighting.weight_and_prune_chunks`): each worker
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

import multiprocessing
import os
import queue
import time
import warnings
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from repro.core.faults import (
    RETRYABLE_FAILURES,
    ChunkTimeout,
    RetriesExhausted,
    WorkerCrashed,
    fire_chunk_fault,
)

from repro.blockprocessing.entity_index import (
    SharedEntityIndex,
    SharedIndexSpec,
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
from repro.utils.shm import SharedArrayPack, SharedPackSpec
from repro.utils.topk import TopKHeap

Comparison = tuple[int, int]
Range = tuple[int, int]
#: A pair-producing chunk task's result: ``("pairs", sources, targets)``
#: arrays, or ``("shard", file_name, pair_count, crc)`` when the worker
#: wrote its pairs straight to a spill shard.
ChunkPairs = tuple

#: Default retry budget per chunk before the executor degrades its backend.
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

#: Execution backends the executor can resolve to (``"auto"`` picks one).
PARALLEL_BACKENDS = ("threads", "fork", "shm-spawn", "in-process")

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
        "worker_crashes": 0,
        "chunk_timeouts": 0,
        "resumed_chunks": 0,
        "degraded": [],
    }


def _new_timings() -> dict:
    """Zeroed per-phase wall-clock buckets (seconds)."""
    return {"dispatch": 0.0, "weight": 0.0, "prune": 0.0, "merge": 0.0}


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


def fork_available() -> bool:
    """True iff the platform offers the ``fork`` start method.

    Setting the ``REPRO_FORCE_SPAWN`` environment variable to a non-empty
    value makes this return False, forcing the spawn-platform code paths on
    Linux too (used by CI and the regression tests).
    """
    if os.environ.get("REPRO_FORCE_SPAWN"):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def spawn_available() -> bool:
    """True iff the platform offers the ``spawn`` start method."""
    return "spawn" in multiprocessing.get_all_start_methods()


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


# -- forked worker state ------------------------------------------------------
#
# With the fork start method, children inherit this module-level pointer and
# the entire object graph behind it (weighting backend, CSR arrays, phase-1
# criteria) copy-on-write. Each phase builds its pool *after* the state is
# staged, so the snapshot the workers see is exactly the parent's.

_FORK_STATE: "ParallelMetaBlockingExecutor | None" = None


def _dispatch(payload: tuple[str, Range, int, int]):
    task, bounds, chunk, attempt = payload
    assert _FORK_STATE is not None, "worker state missing (fork executor)"
    fire_chunk_fault(task, chunk, attempt, in_worker=True)
    return getattr(_FORK_STATE, task)(bounds)


# -- spawned worker state -----------------------------------------------------
#
# With the spawn start method nothing is inherited; the pool initializer
# attaches the published Entity Index segment and rebuilds the parent's
# weighting backend class around the zero-copy views. Per-phase criteria
# arrive as a ``(scalars, pack spec)`` stage attached lazily per task and
# cached by segment name across a map call.


class _SpawnWorkerState:
    """Per-process state of a shm-spawn pool worker."""

    __slots__ = ("shell", "pack", "pack_name")

    def __init__(self, shell: "ParallelMetaBlockingExecutor") -> None:
        self.shell = shell
        self.pack: SharedArrayPack | None = None
        self.pack_name: str | None = None


_SPAWN_STATE: _SpawnWorkerState | None = None


def _spawn_init(
    index_spec: SharedIndexSpec,
    weighting_class: type[EdgeWeighting],
    scheme_name: str,
) -> None:
    """Pool initializer: attach the shared index, rebuild the backend."""
    global _SPAWN_STATE
    index = SharedEntityIndex.attach(index_spec)
    weighting = weighting_class._from_shared_index(index, scheme_name)
    _SPAWN_STATE = _SpawnWorkerState(
        ParallelMetaBlockingExecutor._worker_shell(weighting)
    )


def _spawn_dispatch(
    payload: tuple[str, Range, dict, SharedPackSpec | None, int, int]
):
    """Run one chunk task inside a spawned worker, staging criteria first."""
    task, bounds, scalars, pack_spec, chunk, attempt = payload
    fire_chunk_fault(task, chunk, attempt, in_worker=True)
    state = _SPAWN_STATE
    assert state is not None, "worker state missing (shm-spawn executor)"
    if pack_spec is None:
        if state.pack is not None:
            state.pack.close()
            state.pack, state.pack_name = None, None
    elif state.pack_name != pack_spec.name:
        if state.pack is not None:
            state.pack.close()
        state.pack = SharedArrayPack.attach(pack_spec)
        state.pack_name = pack_spec.name
    shell = state.shell
    shell._k = scalars["k"]
    shell._wep_threshold = scalars["wep_threshold"]
    shell._conjunctive = scalars["conjunctive"]
    shell._phase2_mode = scalars["phase2_mode"]
    shell._spill_dir = scalars.get("spill_dir")
    arrays = state.pack.arrays if state.pack is not None else {}
    shell._keys = arrays.get("keys")
    shell._threshold_array = arrays.get("thresholds")
    degrees = arrays.get("degrees")
    if degrees is not None:
        weighting = shell.weighting
        weighting._degrees = degrees  # type: ignore[assignment]
        weighting._total_edges = scalars["total_edges"]
        weighting._degrees_array = degrees
    return getattr(shell, task)(bounds)


class ParallelMetaBlockingExecutor:
    """Fan edge weighting + pruning across a process pool.

    Parameters
    ----------
    weighting:
        Any :class:`~repro.core.edge_weighting.EdgeWeighting` backend; its
        Entity Index CSR arrays are shared with the workers — copy-on-write
        under ``fork``, through a named shared-memory segment under
        ``shm-spawn``.
    workers:
        Process count; ``None``/``0`` means one per CPU core, ``1`` runs the
        chunked code path in-process (no pool).
    chunks:
        Number of contiguous node ranges to split the graph into; defaults
        to ``4 × workers`` so stragglers rebalance.
    backend:
        ``None``/``"auto"`` picks ``threads`` (available on every
        platform); any name from :data:`PARALLEL_BACKENDS` forces one,
        falling back (with a single :class:`RuntimeWarning`) when the
        platform cannot honour it.
    chunking:
        ``"auto"`` (the default) balances the node ranges by Entity Index
        comparison mass (:func:`partition_ranges_by_mass`); ``"even"``
        keeps the historical equal-node-count split. Either way the
        retained comparisons are identical.
    max_retries:
        Retry budget per chunk: a chunk whose worker died
        (:class:`~repro.core.faults.WorkerCrashed`) or that exceeded
        ``chunk_timeout`` is re-executed up to this many times before the
        executor *degrades* to the next simpler backend (shm-spawn → fork →
        in-process); once in-process and still failing, the supervisor
        raises :class:`~repro.core.faults.RetriesExhausted`. Deterministic
        task exceptions are never retried.
    chunk_timeout:
        Seconds one chunk may run before it is counted as failed; ``None``
        (the default) disables the timeout.
    backoff:
        Base of the exponential retry backoff (``backoff * 2**(attempt-1)``
        seconds before each retry).

    Executors that resolve to ``shm-spawn`` own shared-memory segments and
    a persistent worker pool: call :meth:`close` when done, or use the
    executor as a context manager. The other backends hold no external
    resources and ``close`` is a no-op.

    Supervision counters accumulate in :attr:`stats` (``retries``,
    ``worker_crashes``, ``chunk_timeouts``, ``resumed_chunks`` and the
    ``degraded`` backend trail) and are surfaced as
    ``MetaBlockingResult.fault_stats``.
    """

    _keys: np.ndarray | None
    _threshold_array: np.ndarray | None

    def __init__(
        self,
        weighting: EdgeWeighting,
        workers: int | None = None,
        chunks: int | None = None,
        backend: str | None = None,
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
        self._spawn_pool: ProcessPoolExecutor | None = None
        self._thread_pool: ThreadPoolExecutor | None = None
        self._thread_shells: "queue.SimpleQueue | None" = None
        self._shared_index: SharedEntityIndex | None = None
        self._range_cache: "list[Range] | None" = None
        self._algorithm_name = ""
        self.backend = self._resolve_backend(backend)
        self._reset_stage()

    # -- backend selection ---------------------------------------------------

    def _resolve_backend(self, requested: str | None) -> str:
        """Resolve the execution backend, warning once on any fallback."""
        if requested == "auto":
            requested = None
        if requested is not None and requested not in PARALLEL_BACKENDS:
            known = ", ".join(PARALLEL_BACKENDS)
            raise ValueError(
                f"unknown parallel backend {requested!r}; known: {known} (or 'auto')"
            )
        if self.workers <= 1 or len(self._nodes) <= 1:
            return "in-process"
        if requested is None:
            # Threads are available everywhere and carry no start-method or
            # serialization cost, so auto-selection never needs to fall
            # back (or warn).
            return "threads"
        if requested == "fork" and not fork_available():
            if spawn_available():
                warnings.warn(
                    "the 'fork' backend was requested but the start method "
                    "is unavailable; falling back to 'shm-spawn'",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return "shm-spawn"
            warnings.warn(
                "the 'fork' backend was requested but no start method is "
                "available; running in-process",
                RuntimeWarning,
                stacklevel=3,
            )
            return "in-process"
        if requested == "shm-spawn" and not spawn_available():
            fallback = "fork" if fork_available() else "in-process"
            warnings.warn(
                "the 'shm-spawn' backend was requested but the spawn start "
                f"method is unavailable; falling back to {fallback!r}",
                RuntimeWarning,
                stacklevel=3,
            )
            return fallback
        return requested

    @property
    def pool_backend(self) -> str:
        """The resolved execution backend (see :data:`PARALLEL_BACKENDS`)."""
        return self.backend

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and unlink owned shared segments.

        Idempotent; a no-op for the fork and in-process backends. Always
        reached via ``try/finally`` in :func:`parallel_prune` and
        :func:`repro.core.pipeline.meta_block`, so segments are reclaimed on
        success, worker crash and ``KeyboardInterrupt`` alike.
        """
        pool, self._spawn_pool = self._spawn_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        threads, self._thread_pool = self._thread_pool, None
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)
        self._thread_shells = None
        shared, self._shared_index = self._shared_index, None
        if shared is not None:
            shared.destroy()

    def __enter__(self) -> "ParallelMetaBlockingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    @classmethod
    def _worker_shell(
        cls, weighting: EdgeWeighting
    ) -> "ParallelMetaBlockingExecutor":
        """A minimal in-process executor for running chunk tasks in a
        spawned worker (no pool, no owned segments, staging applied by
        :func:`_spawn_dispatch`)."""
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
        shell._spawn_pool = None
        shell._thread_pool = None
        shell._thread_shells = None
        shell._shared_index = None
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

    def _ensure_spawn_pool(self) -> ProcessPoolExecutor:
        """The persistent spawn pool (and published index), built lazily."""
        if self._spawn_pool is None:
            if self._shared_index is None:
                self._shared_index = self.weighting.index.to_shared()
            self._spawn_pool = ProcessPoolExecutor(
                max_workers=min(self.workers, max(1, len(self._nodes))),
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_spawn_init,
                initargs=(
                    self._shared_index.spec,
                    type(self.weighting),
                    self.weighting.scheme.name,
                ),
            )
        return self._spawn_pool

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        """The persistent thread pool plus one weighting clone per thread.

        The clones are what make the backend safe with the ScanCount
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
        """Run one chunk task on a checked-out thread shell."""
        task, bounds, chunk, attempt = payload
        # in_worker=False: an injected "kill" must surface as a retryable
        # WorkerCrashed here — os._exit in a pool thread would take the
        # whole interpreter down, not one worker.
        fire_chunk_fault(task, chunk, attempt, in_worker=False)
        shells = self._thread_shells
        assert shells is not None, "worker shells missing (threads executor)"
        shell = shells.get()
        try:
            self._sync_shell(shell)
            return getattr(shell, task)(bounds)
        finally:
            shells.put(shell)

    def _stage_payload(self) -> tuple[dict, SharedArrayPack | None]:
        """Snapshot the staged criteria for one shm-spawn map call.

        Scalars ride in the task payload; arrays (redefined top-k keys,
        node thresholds, EJS degrees) go through a short-lived shared pack
        the caller must destroy after the map returns.
        """
        weighting = self.weighting
        scalars = {
            "k": self._k,
            "wep_threshold": self._wep_threshold,
            "conjunctive": self._conjunctive,
            "phase2_mode": self._phase2_mode,
            "spill_dir": self._spill_dir,
            "total_edges": weighting._total_edges,
        }
        arrays: dict[str, np.ndarray] = {}
        if self._keys is not None:
            arrays["keys"] = self._keys
        if self._threshold_array is not None:
            arrays["thresholds"] = self._threshold_array
        if weighting.scheme.uses_degrees and weighting._degrees is not None:
            arrays["degrees"] = np.asarray(weighting._degrees, dtype=np.int64)
        pack = SharedArrayPack.publish(arrays) if arrays else None
        return scalars, pack

    # -- supervised chunk mapping --------------------------------------------

    def _map_chunks(
        self,
        task: str,
        ranges: Sequence[Range],
        skip: "frozenset[int] | set[int]" = frozenset(),
    ) -> list:
        """Run ``task`` over every node range, supervising the pool.

        Results come back in submission order (``None`` for ``skip``-ped
        chunks — already-completed work on a resumed run). Retryable
        failures — a dead worker (:class:`BrokenProcessPool` →
        :class:`~repro.core.faults.WorkerCrashed`) or a chunk exceeding
        :attr:`chunk_timeout` (:class:`~repro.core.faults.ChunkTimeout`) —
        are retried with exponential backoff; chunks already completed in a
        failed attempt are kept, never re-run. A chunk that exhausts
        :attr:`max_retries` degrades the executor to the next simpler
        backend (shm-spawn → fork → in-process); once in-process, the
        supervisor raises :class:`~repro.core.faults.RetriesExhausted`.
        Deterministic task exceptions propagate immediately, unretried.
        """
        if not ranges:
            return []
        bucket = "weight" if task in _WEIGHT_TASKS else "prune"
        started = time.perf_counter()
        dispatch_before = self.timings["dispatch"]
        pending = [index for index in range(len(ranges)) if index not in skip]
        results: dict[int, object] = {}
        attempts = {index: 0 for index in pending}
        stage: "tuple[dict, SharedArrayPack | None] | None" = None
        try:
            while pending:
                if self.backend == "shm-spawn" and stage is None:
                    stage = self._stage_payload()
                failure = self._map_attempt(
                    task, ranges, pending, attempts, results, stage
                )
                if failure is None:
                    continue  # every pending chunk completed
                index, error = failure
                self.stats["retries"] += 1
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    if not self._degrade(task, error):
                        raise RetriesExhausted(
                            f"chunk {index} of task {task!r} still failing "
                            f"after {self.max_retries} retries and every "
                            "backend degradation"
                        ) from error
                    continue  # fresh backend gets its own attempt, no sleep
                delay = self.backoff * (2 ** (attempts[index] - 1))
                if delay > 0:
                    time.sleep(delay)
        finally:
            if stage is not None and stage[1] is not None:
                stage[1].destroy()
            # Submission overhead was credited to "dispatch" as it
            # happened; the rest of the map's wall-clock is the phase work.
            elapsed = time.perf_counter() - started
            dispatched = self.timings["dispatch"] - dispatch_before
            self.timings[bucket] += max(0.0, elapsed - dispatched)
        return [results.get(index) for index in range(len(ranges))]

    def _map_attempt(
        self,
        task: str,
        ranges: Sequence[Range],
        pending: "list[int]",
        attempts: "dict[int, int]",
        results: "dict[int, object]",
        stage: "tuple[dict, SharedArrayPack | None] | None",
    ) -> "tuple[int, Exception] | None":
        """One pool lifetime over the pending chunks.

        Completed chunks move from ``pending`` into ``results``. Returns
        ``None`` when everything finished, else ``(chunk_index, error)``
        naming the first retryable failure observed — remaining chunks stay
        pending for the next attempt.
        """
        if self.backend == "in-process":
            for index in list(pending):
                try:
                    fire_chunk_fault(
                        task, index, attempts[index], in_worker=False
                    )
                    results[index] = getattr(self, task)(ranges[index])
                except RETRYABLE_FAILURES as error:
                    self._count_failure(error)
                    return index, error
                pending.remove(index)
            return None
        if self.backend == "threads":
            return self._submit_and_collect(
                self._ensure_thread_pool(),
                self._thread_dispatch,
                {
                    index: (task, ranges[index], index, attempts[index])
                    for index in pending
                },
                pending,
                results,
            )
        if self.backend == "fork":
            global _FORK_STATE
            _FORK_STATE = self
            failure: "tuple[int, Exception] | None" = None
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending)),
                mp_context=multiprocessing.get_context("fork"),
            )
            try:
                failure = self._submit_and_collect(
                    pool,
                    _dispatch,
                    {
                        index: (task, ranges[index], index, attempts[index])
                        for index in pending
                    },
                    pending,
                    results,
                )
                return failure
            finally:
                _FORK_STATE = None
                pool.shutdown(wait=failure is None, cancel_futures=True)
        # shm-spawn: the persistent pool, rebuilt after any failure.
        assert stage is not None
        scalars, pack = stage
        spec = pack.spec if pack is not None else None
        failure = self._submit_and_collect(
            self._ensure_spawn_pool(),
            _spawn_dispatch,
            {
                index: (task, ranges[index], scalars, spec, index, attempts[index])
                for index in pending
            },
            pending,
            results,
        )
        if failure is not None:
            self._discard_spawn_pool()
        return failure

    def _submit_and_collect(
        self,
        pool: "ProcessPoolExecutor | ThreadPoolExecutor",
        dispatch,
        payloads: "dict[int, tuple]",
        pending: "list[int]",
        results: "dict[int, object]",
    ) -> "tuple[int, Exception] | None":
        """Submit one attempt's chunks, then wait on them in order.

        A worker can die while later chunks are still being submitted; the
        broken pool then refuses them. Those chunks stay pending for the
        next attempt, and the crash is reported like any dead worker.
        """
        submit_started = time.perf_counter()
        futures: "dict[int, Future]" = {}
        unsent: "int | None" = None
        for index, payload in payloads.items():
            try:
                futures[index] = pool.submit(dispatch, payload)
            except BrokenProcessPool:
                unsent = index
                break
        self.timings["dispatch"] += time.perf_counter() - submit_started
        failure = self._collect(pool, futures, pending, results)
        if failure is None and unsent is not None:
            error = WorkerCrashed(
                f"a worker died before chunk {unsent} could be submitted"
            )
            self._count_failure(error)
            failure = unsent, error
        return failure

    def _collect(
        self,
        pool: "ProcessPoolExecutor | ThreadPoolExecutor",
        futures: "dict[int, Future]",
        pending: "list[int]",
        results: "dict[int, object]",
    ) -> "tuple[int, Exception] | None":
        """Wait on the attempt's futures in submission order."""
        for index in sorted(futures):
            future = futures[index]
            try:
                value = future.result(timeout=self.chunk_timeout)
            except RETRYABLE_FAILURES as error:
                # Raised inside the task itself — the threads backend's
                # injected crashes/timeouts surface here rather than as a
                # broken pool.
                self._count_failure(error)
                self._harvest(futures, pending, results, skip=index)
                return index, error
            except FuturesTimeout:
                error: Exception = ChunkTimeout(
                    f"chunk {index} exceeded the "
                    f"{self.chunk_timeout:g}s chunk timeout"
                )
                self._count_failure(error)
                self._abandon(pool, futures, pending, results, skip=index)
                return index, error
            except BrokenProcessPool as cause:
                error = WorkerCrashed(
                    f"a worker died while chunk {index} was outstanding: "
                    f"{cause}"
                )
                self._count_failure(error)
                self._harvest(futures, pending, results, skip=index)
                return index, error
            else:
                results[index] = value
                pending.remove(index)
        return None

    def _harvest(
        self,
        futures: "dict[int, Future]",
        pending: "list[int]",
        results: "dict[int, object]",
        skip: int,
    ) -> None:
        """Keep every chunk that did finish before the attempt failed."""
        for index, future in futures.items():
            if index == skip or index not in pending:
                continue
            if future.done() and not future.cancelled():
                try:
                    results[index] = future.result(timeout=0)
                except BaseException:
                    continue  # died with the pool; stays pending
                pending.remove(index)

    def _abandon(
        self,
        pool: ProcessPoolExecutor,
        futures: "dict[int, Future]",
        pending: "list[int]",
        results: "dict[int, object]",
        skip: int,
    ) -> None:
        """Cancel what never started, keep what finished, stop the rest.

        A timed-out chunk may be stuck in a worker indefinitely; killing
        the pool's processes is the only way to reclaim them (best-effort —
        ``_processes`` is CPython's private map).
        """
        for index, future in futures.items():
            if index != skip:
                future.cancel()
        self._harvest(futures, pending, results, skip)
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass

    def _count_failure(self, error: Exception) -> None:
        if isinstance(error, ChunkTimeout):
            self.stats["chunk_timeouts"] += 1
        else:
            self.stats["worker_crashes"] += 1

    def _discard_spawn_pool(self) -> None:
        """Drop (and best-effort stop) a failed spawn pool; keep the index
        segment so the replacement pool re-attaches without republishing."""
        pool, self._spawn_pool = self._spawn_pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _degrade(self, task: str, error: Exception) -> bool:
        """Fall to the next simpler backend after a chunk's retry budget.

        threads → in-process, shm-spawn → fork (where available) →
        in-process; returns False when already in-process (nothing left to
        degrade to). Attempt counters are kept, but the fresh backend
        always gets at least one attempt.
        """
        if self.backend == "shm-spawn":
            target = "fork" if fork_available() else "in-process"
        elif self.backend in ("fork", "threads"):
            target = "in-process"
        else:
            return False
        warnings.warn(
            f"the {self.backend!r} backend kept failing on {task!r} "
            f"({error}); degrading to {target!r}",
            RuntimeWarning,
            stacklevel=5,
        )
        if self.backend == "shm-spawn":
            self._discard_spawn_pool()
        self.stats["degraded"].append(target)
        self.backend = target
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

    # -- worker tasks (run inside pool children) -----------------------------

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
        uniquely-named shard inside it — so a chunk's result never travels
        through pickle, and worker memory stays bounded — and only the shard
        name (plus its CRC, for checkpoint validation on resume) rides back.
        Otherwise the canonical arrays are returned as-is.
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

    def _chunk_degrees(self, bounds: Range) -> list[tuple[int, int]]:
        """Node degrees for one range (pure graph statistic, weight-free)."""
        weighting = self.weighting
        return [
            (entity, weighting.count_neighbors(entity))
            for entity in self._nodes[bounds[0] : bounds[1]]
        ]

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

        Worker-written shards are adopted by name (the sink flushes its own
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
        weighting = self.weighting
        if weighting._degrees is not None:
            return
        degrees = [0] * weighting.num_entities
        total = 0
        for chunk in self._map_chunks("_chunk_degrees", self._ranges()):
            for entity, degree in chunk:
                degrees[entity] = degree
                total += degree
        weighting._degrees = degrees
        # Every edge is discovered from both endpoints.
        weighting._total_edges = total // 2
        weighting._degrees_array = np.asarray(degrees, dtype=np.int64)

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
        staged to the workers and every pair-producing chunk task writes its
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
        # keep bounded worker memory and chunk-level resume records) and
        # can be disabled per algorithm via ``algorithm.fused``.
        fused = self._spill_dir is None and getattr(algorithm, "fused", True)
        if isinstance(algorithm, CardinalityEdgePruning):
            self._k = (
                algorithm.k
                if algorithm.k is not None
                else cardinality_edge_threshold(self.weighting.blocks)
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
                else cardinality_node_threshold(self.weighting.blocks)
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
                else cardinality_node_threshold(self.weighting.blocks)
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
    backend: str | None = None,
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
        backend=backend,
        chunking=chunking,
    )
    try:
        return executor.prune(algorithm, sink=sink)
    finally:
        executor.close()
