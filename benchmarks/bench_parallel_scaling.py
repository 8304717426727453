"""Parallel executor scaling — speedup vs. worker count (extra).

The parallel node-partitioned executor promises the serial algorithms'
exact output at a fraction of the wall clock. This bench builds a synthetic
redundancy-positive block collection of >= 50k entities directly (no
dataset/blocking stage — the subject here is weighting + pruning) and runs
the redefined-WNP configuration three ways: serially, on the executor's
thread pool at 2, 4 and 8 workers, and on its in-process path with the
same chunking as each pooled run (one worker, ``4 × workers`` chunks), so
the thread pool's gain is separated from the chunking's. It records the
speedup curve and the executor's per-phase timings, and asserts that every
run retains the identical comparison set.

The speedup assertion only fires on machines with enough *usable* cores
(the affinity mask, not the host count): >= 3x for the thread pool at 8
workers on 8+ cores. The exactness assertions always run. Scale with
``REPRO_BENCH_SCALE`` as usual.
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


def test_parallel_scaling(benchmark):
    blocks = synthetic_collection(
        max(1000, int(NUM_ENTITIES * bench_scale())),
        BLOCKS_PER_ENTITY,
        BLOCK_SIZE,
    )
    algorithm = RedefinedWeightedNodePruning()
    legs = [
        (backend, workers)
        for backend in ("threads", "in-process")
        for workers in WORKER_COUNTS
    ]
    timings: dict[tuple[str, int], float] = {}
    phases: dict[tuple[str, int], dict] = {}
    outputs: dict[tuple[str, int], list] = {}

    def run_all():
        # Every leg builds its weighting (the Entity Index) untimed.
        weighting = VectorizedEdgeWeighting(blocks, "JS")
        with Timer() as timer:
            serial = algorithm.prune(weighting)
        timings[("serial", 1)] = timer.elapsed
        outputs[("serial", 1)] = serial.pairs
        for backend, workers in legs:
            executor = ParallelMetaBlockingExecutor(
                VectorizedEdgeWeighting(blocks, "JS"),
                workers=workers if backend == "threads" else 1,
                chunks=4 * workers,
            )
            assert executor.backend == backend
            try:
                with Timer() as timer:
                    comparisons = executor.prune(algorithm)
            finally:
                executor.close()
            timings[(backend, workers)] = timer.elapsed
            phases[(backend, workers)] = {
                phase: round(seconds, 3)
                for phase, seconds in executor.timings.items()
            }
            outputs[(backend, workers)] = comparisons.pairs
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    serial_pairs = sorted(outputs[("serial", 1)])
    serial_seconds = timings[("serial", 1)]
    for (backend, workers), seconds in timings.items():
        RECORDER.record(
            "parallel_scaling",
            {
                "|E|": blocks.num_entities,
                "||B||": blocks.cardinality,
                "backend": backend,
                "workers": workers if backend == "threads" else 1,
                "chunks": 4 * workers if backend != "serial" else 1,
                "seconds": round(seconds, 3),
                "speedup": round(serial_seconds / max(seconds, 1e-9), 2),
                "||B'||": len(outputs[(backend, workers)]),
                **(
                    {"phases": phases[(backend, workers)]}
                    if (backend, workers) in phases
                    else {}
                ),
            },
        )
        # Exactness: every leg retains the identical comparison set.
        assert sorted(outputs[(backend, workers)]) == serial_pairs, (
            backend,
            workers,
        )

    if resolve_workers(0) >= 8:
        speedup = serial_seconds / max(timings[("threads", 8)], 1e-9)
        assert speedup >= BEST_SPEEDUP_FLOOR, (
            f"expected >= {BEST_SPEEDUP_FLOOR}x at 8 workers on the thread "
            f"pool, got {speedup:.2f}x"
        )
