"""Parallel executor scaling — speedup vs. worker count (extra).

The parallel node-partitioned executor promises the serial algorithms'
exact output at a fraction of the wall clock. This bench builds a synthetic
redundancy-positive block collection of >= 50k entities directly (no
dataset/blocking stage — the subject here is weighting + pruning) and runs
the redefined-WNP configuration three ways: serially, on the executor's
thread pool at 2, 4 and 8 workers, and on its in-process path with the
same chunking as each pooled run (one worker, ``4 × workers`` chunks), so
the thread pool's gain is separated from the chunking's. Every round runs
each leg once, so the legs interleave and share the host's slow and fast
spells; each leg records the median of :data:`ROUNDS` rounds with its
q1–q3 spread, the speedup of the medians and the executor's median
per-phase timings, and every run must retain the identical comparison set.

The speedup assertion only fires on machines with enough *usable* cores
(the affinity mask, not the host count): >= 3x for the thread pool at 8
workers on 8+ cores, read off the medians. The exactness assertions always
run. Scale with ``REPRO_BENCH_SCALE`` as usual.
"""

from __future__ import annotations

import numpy as np

from benchmarks._recorder import RECORDER
from benchmarks.conftest import bench_scale
from repro.core.parallel import ParallelMetaBlockingExecutor, resolve_workers
from repro.core.pruning import RedefinedWeightedNodePruning
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.blocks import Block, BlockCollection
from repro.utils.timer import Timer

NUM_ENTITIES = 50_000
BLOCKS_PER_ENTITY = 4
BLOCK_SIZE = 10
WORKER_COUNTS = (2, 4, 8)
ROUNDS = 5
BEST_SPEEDUP_FLOOR = 3.0  # threads at 8 workers, 8+ usable cores


def synthetic_collection(
    num_entities: int, blocks_per_entity: int, block_size: int, seed: int = 42
) -> BlockCollection:
    """A random unilateral, redundancy-positive collection of given shape."""
    rng = np.random.default_rng(seed)
    assignments = num_entities * blocks_per_entity
    num_blocks = assignments // block_size
    membership = rng.integers(0, num_entities, size=assignments, dtype=np.int64)
    blocks = []
    for position in range(num_blocks):
        members = np.unique(
            membership[position * block_size : (position + 1) * block_size]
        )
        if members.size >= 2:
            blocks.append(Block(f"s{position}", members.tolist()))
    return BlockCollection(blocks, num_entities).sorted_by_cardinality()


def pair_keys(comparisons, num_entities: int) -> np.ndarray:
    """A run's retained comparison set as sorted int64 pair keys."""
    keys = [
        sources * num_entities + targets
        for sources, targets in comparisons.stream()
    ]
    return np.sort(np.concatenate(keys)) if keys else np.empty(0, np.int64)


def median_phases(runs: "list[dict]") -> dict:
    """The executor's per-phase seconds, each the median over the rounds."""
    return {
        phase: round(float(np.median([run[phase] for run in runs])), 3)
        for phase in runs[0]
    }


def test_parallel_scaling(benchmark):
    blocks = synthetic_collection(
        max(1000, int(NUM_ENTITIES * bench_scale())),
        BLOCKS_PER_ENTITY,
        BLOCK_SIZE,
    )
    algorithm = RedefinedWeightedNodePruning()
    legs = [("serial", 1)] + [
        (backend, workers)
        for backend in ("threads", "in-process")
        for workers in WORKER_COUNTS
    ]
    seconds: dict[tuple[str, int], list[float]] = {leg: [] for leg in legs}
    phases: dict[tuple[str, int], list[dict]] = {leg: [] for leg in legs}
    retained: dict[tuple[str, int], int] = {}
    expected: list[np.ndarray] = []

    def run_leg(backend: str, workers: int):
        # Every leg builds its weighting (the Entity Index) untimed.
        weighting = VectorizedEdgeWeighting(blocks, "JS")
        if backend == "serial":
            with Timer() as timer:
                comparisons = algorithm.prune(weighting)
            return timer.elapsed, None, comparisons
        executor = ParallelMetaBlockingExecutor(
            weighting,
            workers=workers if backend == "threads" else 1,
            chunks=4 * workers,
        )
        assert executor.backend == backend
        try:
            with Timer() as timer:
                comparisons = executor.prune(algorithm)
        finally:
            executor.close()
        return timer.elapsed, dict(executor.timings), comparisons

    def run_all():
        for _ in range(ROUNDS):
            for leg in legs:
                elapsed, timings, comparisons = run_leg(*leg)
                seconds[leg].append(elapsed)
                if timings is not None:
                    phases[leg].append(timings)
                keys = pair_keys(comparisons, blocks.num_entities)
                if not expected:
                    expected.append(keys)
                # Exactness: every run retains the identical comparison set.
                assert np.array_equal(keys, expected[0]), leg
                retained[leg] = int(keys.size)
        return seconds

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    medians = {leg: float(np.median(samples)) for leg, samples in seconds.items()}
    serial_seconds = medians[("serial", 1)]
    for leg, samples in seconds.items():
        backend, workers = leg
        q1, q3 = np.percentile(samples, [25, 75])
        RECORDER.record(
            "parallel_scaling",
            {
                "|E|": blocks.num_entities,
                "||B||": blocks.cardinality,
                "backend": backend,
                "workers": workers if backend == "threads" else 1,
                "chunks": 4 * workers if backend != "serial" else 1,
                "seconds": round(medians[leg], 3),
                "q1-q3": [round(float(q1), 3), round(float(q3), 3)],
                "speedup": round(serial_seconds / max(medians[leg], 1e-9), 2),
                "||B'||": retained[leg],
                **({"phases": median_phases(phases[leg])} if phases[leg] else {}),
            },
        )

    if resolve_workers(0) >= 8:
        speedup = serial_seconds / max(medians[("threads", 8)], 1e-9)
        assert speedup >= BEST_SPEEDUP_FLOOR, (
            f"expected >= {BEST_SPEEDUP_FLOOR}x at 8 workers on the thread "
            f"pool, got {speedup:.2f}x (medians of {ROUNDS} rounds)"
        )
