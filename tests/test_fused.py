"""Fused weight+prune kernels, degree-aware chunking and phase timings.

The fused paths weight each node chunk once (through the backend's
``neighborhood_batch`` kernel) and serve both the criterion phase and the
retention phase from it. They are an execution detail, so every test here
asserts exact equivalence with the per-edge references: the two-pass stream
that spill runs take, ``prune_per_edge``, and each node's scalar
``neighborhood()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edge_weighting import (
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
    weight_and_prune_chunks,
)
from repro.core.execution import ExecutionConfig
from repro.core.parallel import (
    ParallelMetaBlockingExecutor,
    partition_ranges,
    partition_ranges_by_mass,
    resolve_workers,
)
from repro.core.pipeline import meta_block
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.blocks import Block, BlockCollection
from repro.datamodel.sinks import InMemorySink

NODE_ORDERED_BACKENDS = {
    "optimized": OptimizedEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}

#: The algorithms with a fused single-gather path (plus their reciprocal
#: subclasses, which inherit it).
FUSED_ALGORITHMS = ("WEP", "ReCNP", "ReWNP", "RcCNP", "RcWNP")

#: The schemes the fused cases run under: the paper's five plus X2, whose
#: ``weight_array`` is the generic scalar loop.
SCHEMES = ["JS", "EJS", "ARCS", "CBS", "ECBS", "X2"]

#: Edge budgets the chunked cases run under: 1 puts every node in its own
#: chunk; 3 is smaller than the hub's neighbourhood.
SMALL_CHUNK_SIZES = (1, 3)


def _dirty_blocks():
    """Unilateral blocks with a hub entity, a singleton and an empty block."""
    return BlockCollection(
        [
            Block("a", [0, 1, 2]),
            Block("b", [0, 3]),
            Block("c", [1, 2, 4, 5]),
            Block("d", [0, 2, 3, 5, 6]),
            Block("e", [4, 6]),
            Block("solo", [7]),
            Block("ghost", []),
        ],
        num_entities=8,
    )


def _bilateral_blocks():
    """Clean-Clean blocks where entity 1 appears only on the second side:
    its id is below its first-side partners', yet it never emits an edge."""
    return BlockCollection(
        [
            Block("a", [0, 2], [1, 5]),
            Block("b", [0, 3], [1]),
            Block("c", [2, 4], [5, 6]),
            Block("d", [3, 4], [6, 7]),
            Block("e", [4], [1, 7]),
        ],
        num_entities=8,
    )


def _hub_blocks():
    """A hub with the highest id shares a block with every other entity:
    its neighbourhood outgrows small chunks, and its edges are emitted by
    its neighbours from every chunk."""
    return BlockCollection(
        [Block(f"h{entity}", [entity, 12]) for entity in range(12)]
        + [Block("x", [0, 1, 2]), Block("y", [3, 4, 5, 6]), Block("z", [7, 8, 12])],
        num_entities=13,
    )


#: Every input the fused cases run on, in processing order.
COLLECTIONS = {
    name: factory().sorted_by_cardinality()
    for name, factory in (
        ("dirty", _dirty_blocks),
        ("bilateral", _bilateral_blocks),
        ("hub", _hub_blocks),
    )
}


@pytest.fixture(scope="module")
def dirty_blocks():
    return COLLECTIONS["dirty"]


def _with_fused(algorithm: str, fused: bool, chunk_size=None):
    pruning = PRUNING_ALGORITHMS[algorithm]()
    pruning.fused = fused
    pruning.chunk_size = chunk_size
    return pruning


def _chunk_cases():
    """``(label, weighting, chunk_size)`` over every backend, scheme,
    collection and edge budget of the fused cases."""
    for backend, weighting_class in sorted(NODE_ORDERED_BACKENDS.items()):
        for scheme in SCHEMES:
            for name, blocks in COLLECTIONS.items():
                for chunk_size in (None, *SMALL_CHUNK_SIZES):
                    label = f"{backend}/{scheme}/{name}/chunk_size={chunk_size}"
                    yield label, weighting_class(blocks, scheme), chunk_size


class TestFusedChunks:
    def test_chunks_reassemble_the_emitted_stream(self):
        """Concatenated fused chunks == every node's emitted edges, in node
        order, bit for bit."""
        for label, weighting, chunk_size in _chunk_cases():
            expected = {"sources": [], "targets": [], "weights": []}
            for entity in weighting.nodes():
                neighbors, weights = weighting.emitted_arrays(entity)
                expected["sources"].append(np.minimum(neighbors, entity))
                expected["targets"].append(np.maximum(neighbors, entity))
                expected["weights"].append(weights)
            chunks = list(
                weight_and_prune_chunks(weighting, weighting.nodes(), chunk_size)
            )
            assert len(chunks) > 1 or chunk_size is None, label
            for field, parts in expected.items():
                np.testing.assert_array_equal(
                    np.concatenate([getattr(f.emitted, field) for f in chunks]),
                    np.concatenate(parts),
                    err_msg=label,
                )

    def test_group_carries_full_neighborhoods(self):
        """Each chunk segment is the node's scalar ``neighborhood()``: same
        neighbours, same order, weights under ``==``."""
        for label, weighting, chunk_size in _chunk_cases():
            seen = []
            for fused in weight_and_prune_chunks(
                weighting, weighting.nodes(), chunk_size
            ):
                group = fused.group
                for position, entity in enumerate(group.entities.tolist()):
                    start, stop = group.offsets[position : position + 2]
                    segment = list(
                        zip(
                            group.neighbors[start:stop].tolist(),
                            group.weights[start:stop].tolist(),
                        )
                    )
                    assert segment == weighting.neighborhood(entity), label
                    seen.append(entity)
            placed = [e for e in weighting.nodes() if weighting.neighborhood(e)]
            assert seen == placed, label

    def test_emitted_node_sums_match_mean_edge_weight(self):
        from repro.core.pruning.base import mean_edge_weight

        for label, weighting, chunk_size in _chunk_cases():
            sums = []
            count = 0
            for fused in weight_and_prune_chunks(
                weighting, weighting.nodes(), chunk_size
            ):
                node_sums, edges = fused.emitted_node_sums()
                if edges:
                    sums.append(node_sums)
                    count += edges
            threshold = float(np.sum(np.concatenate(sums))) / count
            assert threshold == mean_edge_weight(weighting), label


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("algorithm", FUSED_ALGORITHMS)
class TestFusedMatchesLegacy:
    """The fused path emits the pairs of the two-pass path that spill runs
    take and of the ``prune_per_edge`` reference, in their order."""

    @pytest.mark.parametrize("backend", sorted(NODE_ORDERED_BACKENDS))
    def test_exact_pairs_and_order(self, scheme, algorithm, backend):
        for name, blocks in COLLECTIONS.items():
            weighting = NODE_ORDERED_BACKENDS[backend](blocks, scheme)
            fused = _with_fused(algorithm, True).prune(weighting).pairs
            legacy = _with_fused(algorithm, False).prune(weighting).pairs
            assert fused == legacy, name

    def test_tiny_chunks(self, scheme, algorithm):
        for backend, weighting_class in sorted(NODE_ORDERED_BACKENDS.items()):
            for name, blocks in COLLECTIONS.items():
                weighting = weighting_class(blocks, scheme)
                per_edge = (
                    PRUNING_ALGORITHMS[algorithm]().prune_per_edge(weighting).pairs
                )
                for chunk_size in SMALL_CHUNK_SIZES:
                    label = f"{backend}/{name}/chunk_size={chunk_size}"
                    fused = _with_fused(algorithm, True, chunk_size)
                    legacy = _with_fused(algorithm, False, chunk_size)
                    pairs = fused.prune(weighting).pairs
                    assert pairs == legacy.prune(weighting).pairs, label
                    assert pairs == per_edge, label

    def test_per_edge_shim_agrees(self, scheme, algorithm):
        for backend, weighting_class in sorted(NODE_ORDERED_BACKENDS.items()):
            for name, blocks in COLLECTIONS.items():
                weighting = weighting_class(blocks, scheme)
                pruning = PRUNING_ALGORITHMS[algorithm]()
                assert (
                    pruning.prune(weighting).pairs
                    == pruning.prune_per_edge(weighting).pairs
                ), f"{backend}/{name}"


class TestFusedGates:
    def test_block_ordered_backend_skips_fusion(self, dirty_blocks):
        """Original's iter_edges is block-ordered, so fusing would reorder
        the emitted pairs; the gate must route it to the legacy path."""
        weighting = OriginalEdgeWeighting(dirty_blocks, "JS")
        assert not weighting.node_ordered_edge_stream
        pruning = PRUNING_ALGORITHMS["ReWNP"]()
        assert not pruning._use_fused_path(weighting, InMemorySink())
        reference = sorted(
            PRUNING_ALGORITHMS["ReWNP"]()
            .prune(VectorizedEdgeWeighting(dirty_blocks, "JS"))
            .pairs
        )
        assert sorted(pruning.prune(weighting).pairs) == reference

    def test_node_ordered_flag_defaults_true(self, dirty_blocks):
        for cls in NODE_ORDERED_BACKENDS.values():
            assert cls(dirty_blocks, "JS").node_ordered_edge_stream


class TestMassPartitioning:
    def test_hub_nodes_get_small_ranges(self):
        masses = np.array([10, 1, 1, 1, 1, 1, 1, 10], dtype=np.float64)
        assert partition_ranges_by_mass(masses, 3) == [(0, 1), (1, 7), (7, 8)]

    def test_exact_non_empty_cover(self):
        rng = np.random.default_rng(7)
        for count in (1, 2, 5, 17, 100):
            masses = rng.integers(0, 50, size=count).astype(np.float64)
            for chunks in (1, 2, 3, count, count + 4):
                ranges = partition_ranges_by_mass(masses, chunks)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == count
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in ranges)
                assert len(ranges) == min(chunks, count)

    def test_zero_mass_falls_back_to_even_split(self):
        masses = np.zeros(10)
        assert partition_ranges_by_mass(masses, 3) == partition_ranges(10, 3)

    def test_empty_input(self):
        assert partition_ranges_by_mass(np.empty(0), 3) == []


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_zero_honours_cpu_affinity(self, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module.os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert resolve_workers(0) == 3
        assert resolve_workers(None) == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import repro.core.parallel as parallel_module

        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(
            parallel_module.os, "sched_getaffinity", unavailable
        )
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 5)
        assert resolve_workers(0) == 5


class TestPhaseTimings:
    def test_executor_accumulates_buckets(self, dirty_blocks):
        executor = ParallelMetaBlockingExecutor(
            VectorizedEdgeWeighting(dirty_blocks, "JS"),
            workers=2,
            chunks=3,
            backend="threads",
        )
        try:
            executor.prune(PRUNING_ALGORITHMS["ReWNP"]())
            timings = executor.timings
        finally:
            executor.close()
        assert set(timings) == {"dispatch", "weight", "prune", "merge"}
        assert all(value >= 0.0 for value in timings.values())
        assert timings["weight"] + timings["prune"] > 0.0

    def test_timings_reset_per_prune(self, dirty_blocks):
        executor = ParallelMetaBlockingExecutor(
            VectorizedEdgeWeighting(dirty_blocks, "JS"),
            workers=2,
            chunks=3,
            backend="in-process",
        )
        try:
            executor.prune(PRUNING_ALGORITHMS["WEP"]())
            first = dict(executor.timings)
            executor.prune(PRUNING_ALGORITHMS["WEP"]())
            second = dict(executor.timings)
        finally:
            executor.close()
        # Each run starts from zero, so the second is not a running total.
        assert second["weight"] + second["prune"] < (
            first["weight"] + first["prune"]
        ) * 10 + 1.0

    def test_meta_block_surfaces_phase_timings(self, dirty_blocks):
        result = meta_block(
            dirty_blocks,
            algorithm="ReCNP",
            execution=ExecutionConfig(
                parallel=2, parallel_backend="in-process"
            ),
        )
        assert set(result.phase_timings) == {
            "dispatch",
            "weight",
            "prune",
            "merge",
        }
        serial = meta_block(dirty_blocks, algorithm="ReCNP")
        assert serial.phase_timings == {}


class TestAutoChunkingPipeline:
    def test_auto_and_even_chunking_retain_identical_pairs(
        self, dirty_blocks
    ):
        auto = meta_block(
            dirty_blocks,
            algorithm="RcWNP",
            execution=ExecutionConfig(
                parallel=2, parallel_backend="threads"
            ),
        )
        even = meta_block(
            dirty_blocks,
            algorithm="RcWNP",
            execution=ExecutionConfig(
                parallel=2, parallel_backend="threads", chunk_size=4
            ),
        )
        serial = meta_block(dirty_blocks, algorithm="RcWNP")
        assert list(auto.comparisons) == list(serial.comparisons)
        assert list(even.comparisons) == list(serial.comparisons)
