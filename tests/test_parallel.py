"""Tests for the parallel node-partitioned meta-blocking executor."""

from __future__ import annotations

import sys
import warnings

import pytest

from repro.core.edge_weighting import (
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.core.parallel import (
    PARALLEL_BACKENDS,
    ParallelMetaBlockingExecutor,
    parallel_prune,
    partition_ranges,
    resolve_workers,
    supports_parallel,
)
from repro.core.execution import ExecutionConfig
from repro.core.pipeline import meta_block
from repro.core.pruning import PRUNING_ALGORITHMS, PruningAlgorithm
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.blocks import Block, BlockCollection

ALL_ALGORITHMS = sorted(PRUNING_ALGORITHMS)


class TestPartitioning:
    def test_ranges_cover_exactly(self):
        for count in (0, 1, 5, 16, 17, 100):
            for chunks in (1, 3, 7, 200):
                ranges = partition_ranges(count, chunks)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(count))

    def test_ranges_are_near_even(self):
        ranges = partition_ranges(10, 3)
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_graph_yields_no_ranges(self):
        assert partition_ranges(0, 4) == []

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1


class TestSupports:
    def test_all_registry_algorithms_supported(self):
        for name in ALL_ALGORITHMS:
            assert supports_parallel(PRUNING_ALGORITHMS[name]())

    def test_prune_rejects_unknown_algorithm(self, example_blocks):
        class CustomPruning(PruningAlgorithm):
            def prune(self, weighting, sink=None):
                raise NotImplementedError

        assert not supports_parallel(CustomPruning())
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "JS"), workers=1
        )
        with pytest.raises(ValueError, match="not node-partitionable"):
            executor.prune(CustomPruning())


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
class TestMatchesSerial:
    """The executor retains the exact same comparisons as the serial code."""

    def test_paper_example_multiprocess(self, example_blocks, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "JS"), workers=2, chunks=3
        )
        assert executor.prune(algorithm).pairs == serial.pairs

    def test_dirty_synthetic(self, tiny_dirty_blocks, name):
        blocks = tiny_dirty_blocks.sorted_by_cardinality()
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OptimizedEdgeWeighting(blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(blocks, "JS"), workers=2, chunks=7
        )
        assert executor.prune(algorithm).pairs == serial.pairs

    def test_clean_clean_synthetic(self, small_clean_blocks, name):
        blocks = small_clean_blocks.sorted_by_cardinality()
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OptimizedEdgeWeighting(blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(blocks, "JS"), workers=2, chunks=5
        )
        assert executor.prune(algorithm).pairs == serial.pairs

    def test_vectorized_backend(self, example_blocks, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(VectorizedEdgeWeighting(example_blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            VectorizedEdgeWeighting(example_blocks, "JS"), workers=2
        )
        assert executor.prune(algorithm).pairs == serial.pairs

    def test_original_backend_same_set(self, example_blocks, name):
        # The original backend's per-node neighbourhood ordering differs from
        # its global iter_edges() ordering, so compare as sets of pairs.
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OriginalEdgeWeighting(example_blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            OriginalEdgeWeighting(example_blocks, "JS"), workers=2
        )
        assert sorted(executor.prune(algorithm).pairs) == sorted(serial.pairs)

    def test_ejs_degrees_shared_with_workers(self, example_blocks, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "EJS"))
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "EJS"), workers=2
        )
        assert executor.prune(algorithm).pairs == serial.pairs

    def test_in_process_chunked_path(self, example_blocks, name):
        # workers=1 exercises the same chunked merge without a pool.
        algorithm = PRUNING_ALGORITHMS[name]()
        serial = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "JS"))
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "JS"), workers=1, chunks=4
        )
        assert executor.prune(algorithm).pairs == serial.pairs


class TestCachedRetentionUnderContention:
    def test_pool_threads_share_the_cache(self, small_clean_blocks):
        """Phase-one tasks fill one cache of emitted batches from every pool
        thread and phase-two tasks read it; with more threads than cores
        and a short switch interval the pairs still equal serial's."""
        blocks = small_clean_blocks.sorted_by_cardinality()
        names = ("WEP", "ReCNP", "RcWNP")
        serial = {
            name: PRUNING_ALGORITHMS[name]()
            .prune(OptimizedEdgeWeighting(blocks, "JS"))
            .pairs
            for name in names
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParallelMetaBlockingExecutor(
                OptimizedEdgeWeighting(blocks, "JS"),
                workers=8,
                chunks=32,
            ) as executor:
                for name in names:
                    pruned = executor.prune(PRUNING_ALGORITHMS[name]())
                    assert pruned.pairs == serial[name], name
        finally:
            sys.setswitchinterval(interval)


class TestBackendResolution:
    def test_single_worker_resolves_in_process(self, example_blocks):
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "JS"), workers=1
        )
        assert executor.backend == "in-process"

    def test_auto_selects_threads(self, example_blocks):
        # Two workers on a multi-node graph always resolve to threads, and
        # the choice never warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            executor = ParallelMetaBlockingExecutor(
                OptimizedEdgeWeighting(example_blocks, "JS"), workers=2
            )
        assert executor.backend == "threads"
        executor.close()

    def test_empty_graph_resolves_in_process(self):
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(BlockCollection([], 0), "JS"), workers=2
        )
        assert executor.backend == "in-process"

    def test_close_joins_the_pool(self, example_blocks):
        with ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(example_blocks, "JS"), workers=2
        ) as executor:
            executor.prune(PRUNING_ALGORITHMS["ReWNP"]())
            pool = executor._thread_pool
            assert pool is not None
        assert executor._thread_pool is None
        assert all(not thread.is_alive() for thread in pool._threads)
        executor.close()  # idempotent


class TestConvenience:
    def test_parallel_prune_supported(self, example_blocks):
        algorithm = PRUNING_ALGORITHMS["ReWNP"]()
        serial = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "JS"))
        result = parallel_prune(
            OptimizedEdgeWeighting(example_blocks, "JS"), algorithm, workers=2
        )
        assert result.pairs == serial.pairs

    def test_parallel_prune_edge_centric(self, example_blocks):
        for name in ("CEP", "WEP"):
            algorithm = PRUNING_ALGORITHMS[name]()
            serial = algorithm.prune(
                OptimizedEdgeWeighting(example_blocks, "JS")
            )
            result = parallel_prune(
                OptimizedEdgeWeighting(example_blocks, "JS"),
                algorithm,
                workers=2,
            )
            assert result.pairs == serial.pairs

    def test_parallel_prune_falls_back_for_unknown(self, example_blocks):
        class CustomPruning(PruningAlgorithm):
            def prune(self, weighting, sink=None):
                return PRUNING_ALGORITHMS["WEP"]().prune(weighting, sink)

        serial = PRUNING_ALGORITHMS["WEP"]().prune(
            OptimizedEdgeWeighting(example_blocks, "JS")
        )
        result = parallel_prune(
            OptimizedEdgeWeighting(example_blocks, "JS"),
            CustomPruning(),
            workers=2,
        )
        assert result.pairs == serial.pairs

    def test_empty_collection(self):
        blocks = BlockCollection([], 0)
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(blocks, "JS"), workers=2
        )
        assert executor.prune(PRUNING_ALGORITHMS["ReWNP"]()).pairs == []

    def test_singleton_graph(self):
        blocks = BlockCollection([Block("a", (0, 1))], num_entities=2)
        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(blocks, "JS"), workers=2, chunks=8
        )
        serial = PRUNING_ALGORITHMS["ReWNP"]().prune(
            OptimizedEdgeWeighting(blocks, "JS")
        )
        assert executor.prune(PRUNING_ALGORITHMS["ReWNP"]()).pairs == serial.pairs


class TestPipelineIntegration:
    def test_meta_block_parallel_matches_serial(self, small_dirty_blocks):
        serial = meta_block(small_dirty_blocks, scheme="JS", algorithm="RcWNP")
        parallel = meta_block(
            small_dirty_blocks,
            scheme="JS",
            algorithm="RcWNP",
            execution=ExecutionConfig(parallel=2),
        )
        assert parallel.comparisons.pairs == serial.comparisons.pairs

    def test_meta_block_parallel_edge_centric_matches_serial(
        self, small_dirty_blocks
    ):
        for algorithm in ("CEP", "WEP"):
            serial = meta_block(
                small_dirty_blocks, scheme="JS", algorithm=algorithm
            )
            parallel = meta_block(
                small_dirty_blocks,
                scheme="JS",
                algorithm=algorithm,
                execution=ExecutionConfig(parallel=2),
            )
            assert parallel.comparisons.pairs == serial.comparisons.pairs

    def test_meta_block_records_parallel_metadata(self, small_dirty_blocks):
        serial = meta_block(small_dirty_blocks, scheme="JS", algorithm="WEP")
        assert serial.effective_workers == 1
        assert serial.parallel_backend == "serial"
        parallel = meta_block(
            small_dirty_blocks,
            scheme="JS",
            algorithm="WEP",
            execution=ExecutionConfig(parallel=2),
        )
        assert parallel.effective_workers == 2
        assert parallel.parallel_backend in PARALLEL_BACKENDS

    def test_meta_block_auto_selects_threads(self, small_dirty_blocks):
        serial = meta_block(small_dirty_blocks, scheme="JS", algorithm="RcWNP")
        result = meta_block(
            small_dirty_blocks,
            scheme="JS",
            algorithm="RcWNP",
            execution=ExecutionConfig(parallel=2),
        )
        assert result.parallel_backend == "threads"
        assert result.comparisons.pairs == serial.comparisons.pairs

    def test_meta_block_warns_for_unsupported_algorithm(
        self, small_dirty_blocks
    ):
        class CustomPruning(PruningAlgorithm):
            name = "custom"

            def prune(self, weighting, sink=None):
                return PRUNING_ALGORITHMS["WEP"]().prune(weighting, sink)

        with pytest.warns(RuntimeWarning, match="does not support parallel"):
            result = meta_block(
                small_dirty_blocks,
                scheme="JS",
                algorithm=CustomPruning(),
                execution=ExecutionConfig(parallel=2),
            )
        assert result.effective_workers == 1
        assert result.parallel_backend == "serial"

    def test_workflow_round_trips_parallel(self):
        from repro import TokenBlocking
        from repro.core.pipeline import MetaBlockingWorkflow

        workflow = MetaBlockingWorkflow(
            TokenBlocking(),
            algorithm="RcWNP",
            execution=ExecutionConfig(parallel=2, chunk_size=1024),
        )
        config = workflow.to_config()
        assert config["parallel"] == 2
        assert config["chunk_size"] == 1024
        assert "parallel_backend" not in config
        restored = MetaBlockingWorkflow.from_config(config)
        assert restored.execution.parallel == 2
        assert restored.execution.chunk_size == 1024

    def test_workflow_config_with_parallel_backend_still_loads(self):
        # Configs saved while the pool backend or chunk supervision were
        # settings carry those keys; loading one ignores them, since the
        # worker count decides and chunks are never retried.
        from repro.core.pipeline import MetaBlockingWorkflow

        restored = MetaBlockingWorkflow.from_config(
            {
                "blocking": "token",
                "algorithm": "RcWNP",
                "parallel": 2,
                "parallel_backend": "shm-spawn",
                "max_retries": 2,
                "chunk_timeout": 30.0,
                "backoff": 0.1,
            }
        )
        assert restored.execution.parallel == 2
        for removed in (
            "parallel_backend", "max_retries", "chunk_timeout", "backoff"
        ):
            assert not hasattr(restored.execution, removed)
