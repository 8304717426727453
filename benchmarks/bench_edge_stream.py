"""Columnar edge stream — batched vs. per-edge pruning throughput (extra).

The batched ``prune`` path exists to remove the per-edge interpreter
overhead from the *pruning* layer, so that is what this bench isolates: the
weighted blocking graph is computed once per backend and cached (per-node
``neighborhood_arrays``, served back in chunks), then a representative pruning
algorithm from each family (WEP edge-centric, CNP node-centric, RcWNP
two-phase) consumes the cached stream through both the per-edge shim and the
batched path. Recorded per configuration: pruning seconds, edges/sec and
peak RSS. Two assertions ride along:

* exactness — both paths retain the identical comparison list;
* speed — on the vectorized backend the batched path must deliver >= 2x the
  aggregate per-edge pruning-phase throughput (the ISSUE's acceptance
  floor), checked at full scale only (REPRO_BENCH_SCALE >= 1).

Scale with ``REPRO_BENCH_SCALE`` as usual.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from benchmarks._recorder import RECORDER
from benchmarks.conftest import bench_scale
from benchmarks.bench_parallel_scaling import synthetic_collection
from repro.core.edge_stream import NeighborhoodBatch
from repro.core.edge_weighting import EdgeWeighting, OptimizedEdgeWeighting
from repro.core.pruning import (
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
)
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.sinks import SpillSink
from repro.utils.timer import Timer

NUM_ENTITIES = 50_000
BLOCKS_PER_ENTITY = 4
BLOCK_SIZE = 10
SPEEDUP_FLOOR = 2.0  # batched vs per-edge on the vectorized backend
ROUNDS = 2  # per-path repetitions; the min filters scheduler noise

BACKENDS = {
    "optimized": OptimizedEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}
ALGORITHMS = {
    "WEP": WeightedEdgePruning,
    "CNP": CardinalityNodePruning,
    "RcWNP": ReciprocalWeightedNodePruning,
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CachedGraph:
    """An :class:`EdgeWeighting`-shaped view over a precomputed graph.

    Caches every node's ``neighborhood_arrays`` once and serves
    ``neighborhood_batch`` from the cache, so that the timed section
    measures only the pruning phase — the edge-stream consumption — not the
    weighting scans, which are identical for both paths.
    """

    #: Keep the pruning algorithms on the streaming path: this wrapper exists
    #: to measure edge-stream consumption, which cached retention would skip.
    node_ordered_edge_stream = False

    neighborhood_chunks = EdgeWeighting.neighborhood_chunks
    _node_runs = EdgeWeighting._node_runs
    emitters = EdgeWeighting.emitters
    iter_edge_batches = EdgeWeighting.iter_edge_batches

    def __init__(self, weighting) -> None:
        weighting._prepare_scheme_inputs()
        self.blocks = weighting.blocks
        self.num_entities = weighting.num_entities
        self.index = weighting.index
        self.scheme = weighting.scheme
        self.num_edges = weighting.graph_size
        self._nodes = weighting.nodes()
        self._neighborhoods = {
            entity: weighting.neighborhood_arrays(entity)
            for entity in self._nodes
        }

    def nodes(self):
        return self._nodes

    def _prepare_scheme_inputs(self):
        pass

    def neighborhood_arrays(self, entity):
        return self._neighborhoods[entity]

    def neighborhood_batch(self, entities):
        pieces = [self._neighborhoods[entity] for entity in entities.tolist()]
        offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
        np.cumsum([neighbors.size for neighbors, _ in pieces], out=offsets[1:])
        return NeighborhoodBatch(
            entities,
            offsets,
            np.concatenate([neighbors for neighbors, _ in pieces]),
            None,
            np.concatenate([weights for _, weights in pieces]),
        )

    def neighborhood(self, entity):
        neighbors, weights = self._neighborhoods[entity]
        return list(zip(neighbors.tolist(), weights.tolist()))

    def iter_neighborhoods(self):
        for entity in self._nodes:
            yield entity, self.neighborhood(entity)

    def iter_edges(self):
        for batch in self.iter_edge_batches():
            yield from batch.iter_edges()


def test_edge_stream_throughput(benchmark):
    blocks = synthetic_collection(
        max(1000, int(NUM_ENTITIES * bench_scale())),
        BLOCKS_PER_ENTITY,
        BLOCK_SIZE,
    )
    graphs = {
        name: CachedGraph(backend(blocks, "JS"))
        for name, backend in BACKENDS.items()
    }
    num_edges = graphs["optimized"].num_edges
    timings: dict[tuple[str, str, str], float] = {}
    matches: dict[tuple[str, str], bool] = {}

    def run_all():
        # Outputs are compared and released per configuration (millions of
        # retained-pair tuples otherwise pile up and distort GC costs).
        gc.disable()
        try:
            for _ in range(ROUNDS):
                for backend_name, graph in graphs.items():
                    for algorithm_name, algorithm_class in ALGORITHMS.items():
                        algorithm = algorithm_class()
                        results = {}
                        for path in ("per_edge", "batched"):
                            prune = (
                                algorithm.prune_per_edge
                                if path == "per_edge"
                                else algorithm.prune
                            )
                            with Timer() as timer:
                                results[path] = prune(graph).pairs
                            key = (backend_name, algorithm_name, path)
                            timings[key] = min(
                                timer.elapsed, timings.get(key, float("inf"))
                            )
                        matches[(backend_name, algorithm_name)] = (
                            results["batched"] == results["per_edge"]
                        )
                        del results
        finally:
            gc.enable()
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rss = peak_rss_mb()
    for backend_name in BACKENDS:
        for algorithm_name in ALGORITHMS:
            per_edge = timings[(backend_name, algorithm_name, "per_edge")]
            batched = timings[(backend_name, algorithm_name, "batched")]
            RECORDER.record(
                "edge_stream",
                {
                    "backend": backend_name,
                    "algorithm": algorithm_name,
                    "|E|": blocks.num_entities,
                    "|E_B|": num_edges,
                    "per_edge_s": round(per_edge, 3),
                    "batched_s": round(batched, 3),
                    "per_edge_eps": round(num_edges / max(per_edge, 1e-9)),
                    "batched_eps": round(num_edges / max(batched, 1e-9)),
                    "speedup": round(per_edge / max(batched, 1e-9), 2),
                    "peak_rss_mb": round(rss, 1),
                },
            )
            # Exactness: both paths retain the identical comparison list.
            assert matches[
                (backend_name, algorithm_name)
            ], f"{backend_name}/{algorithm_name}: batched != per-edge"

    if bench_scale() >= 1.0:
        per_edge_total = sum(
            timings[("vectorized", name, "per_edge")] for name in ALGORITHMS
        )
        batched_total = sum(
            timings[("vectorized", name, "batched")] for name in ALGORITHMS
        )
        speedup = per_edge_total / max(batched_total, 1e-9)
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized: expected >= {SPEEDUP_FLOOR}x aggregate batched "
            f"pruning speedup, got {speedup:.2f}x"
        )


# -- out-of-core spilling under an enforced address-space cap -----------------

#: Fixed workload for the memory-budget smoke (independent of
#: REPRO_BENCH_SCALE so the eager/spilled separation stays reliable).
BUDGET_ENTITIES = 50_000
#: Address-space headroom granted on top of the post-setup footprint. The
#: eager path's materialised pair list (~120 bytes/pair x ~400k retained
#: pairs) blows through it; the spilled path's resident working set (one
#: shard buffer + per-batch scratch) stays far below it.
BUDGET_HEADROOM_MB = 32
#: SpillSink memory budget for the capped child: 1 MiB of buffered pairs.
SPILL_BUDGET_BYTES = 1 << 20
#: Exit code the child uses to signal "hit the cap" (MemoryError).
EXIT_OVER_BUDGET = 77


def _virtual_memory_bytes() -> int:
    """Current virtual address-space size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[0])
    return pages * os.sysconf("SC_PAGESIZE")


def _memory_budget_child(mode: str) -> None:
    """Subprocess body for :func:`test_spill_completes_under_rss_cap`.

    Builds the workload, then caps the address space at the current
    footprint plus :data:`BUDGET_HEADROOM_MB` and runs one WEP pruning pass.
    ``eager`` consumes through the historical surface (the materialised pair
    list); ``spilled`` prunes through a budgeted :class:`SpillSink` and
    streams the view's batches. Prints the retained-pair count and exits 0,
    or exits :data:`EXIT_OVER_BUDGET` on MemoryError.
    """
    blocks = synthetic_collection(BUDGET_ENTITIES, BLOCKS_PER_ENTITY, BLOCK_SIZE)
    weighting = VectorizedEdgeWeighting(blocks, "JS")
    weighting._prepare_scheme_inputs()
    algorithm = WeightedEdgePruning()
    gc.collect()
    cap = _virtual_memory_bytes() + BUDGET_HEADROOM_MB * (1 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        if mode == "eager":
            count = len(algorithm.prune(weighting).pairs)
        else:
            sink = SpillSink(memory_budget=SPILL_BUDGET_BYTES)
            view = algorithm.prune(weighting, sink=sink)
            count = sum(int(sources.size) for sources, _ in view.stream())
            view.release()
    except MemoryError:
        print("over budget", flush=True)
        raise SystemExit(EXIT_OVER_BUDGET)
    print(count, flush=True)
    raise SystemExit(0)


def _run_budget_child(mode: str) -> subprocess.CompletedProcess:
    code = (
        "from benchmarks.bench_edge_stream import _memory_budget_child; "
        f"_memory_budget_child({mode!r})"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", ".", env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=600,
    )


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS semantics are Linux-specific")
def test_spill_completes_under_rss_cap():
    """A budgeted spill run finishes under a cap the eager path exceeds."""
    eager = _run_budget_child("eager")
    spilled = _run_budget_child("spilled")
    assert spilled.returncode == 0, (
        f"spilled run failed under the cap:\n{spilled.stdout}{spilled.stderr}"
    )
    assert eager.returncode == EXIT_OVER_BUDGET, (
        "eager run was expected to exhaust the address-space cap, got exit "
        f"{eager.returncode}:\n{eager.stdout}{eager.stderr}"
    )
    # The capped spilled run must still retain exactly what an uncapped
    # in-process run retains.
    blocks = synthetic_collection(BUDGET_ENTITIES, BLOCKS_PER_ENTITY, BLOCK_SIZE)
    reference = len(WeightedEdgePruning().prune(VectorizedEdgeWeighting(blocks, "JS")))
    spilled_count = int(spilled.stdout.strip().splitlines()[-1])
    assert spilled_count == reference
    RECORDER.record(
        "memory_budget",
        {
            "|E|": BUDGET_ENTITIES,
            "retained": reference,
            "headroom_mb": BUDGET_HEADROOM_MB,
            "spill_budget_bytes": SPILL_BUDGET_BYTES,
            "eager": "over budget",
            "spilled": "completed",
        },
    )


def test_chunk_size_memory_profile(benchmark):
    """Chunk size bounds the batched path's working set, never its output."""
    blocks = synthetic_collection(
        max(1000, int(NUM_ENTITIES * bench_scale())),
        BLOCKS_PER_ENTITY,
        BLOCK_SIZE,
    )
    graph = CachedGraph(VectorizedEdgeWeighting(blocks, "JS"))
    reference = None

    def run_all():
        nonlocal reference
        gc.disable()
        try:
            for chunk_size in (1024, 32768, 1 << 22):
                algorithm = WeightedEdgePruning()
                algorithm.chunk_size = chunk_size
                with Timer() as timer:
                    pairs = algorithm.prune(graph).pairs
                RECORDER.record(
                    "edge_stream_chunks",
                    {
                        "chunk_size": chunk_size,
                        "seconds": round(timer.elapsed, 3),
                        "peak_rss_mb": round(peak_rss_mb(), 1),
                    },
                )
                if reference is None:
                    reference = pairs
                assert pairs == reference
        finally:
            gc.enable()

    benchmark.pedantic(run_all, rounds=1, iterations=1)
