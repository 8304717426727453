"""End-to-end out-of-core tests: spilled runs are bit-identical to eager.

Covers the full matrix: every pruning algorithm, serial and both parallel
executor backends (thread pool, in-process), eager versus spilled output —
the retained comparison sequence must be identical everywhere, on the
supervised classifier scheme too. Plus the failure path: a crash mid-spill
leaves no artifacts behind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.block_filtering import BlockFiltering
from repro.core.edge_weighting import OptimizedEdgeWeighting
from repro.core.execution import ExecutionConfig
from repro.core.parallel import PARALLEL_BACKENDS, ParallelMetaBlockingExecutor
from repro.core.pipeline import meta_block
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.datamodel.sinks import ComparisonView, SpillSink, load_spilled_view
from repro.supervised import (
    ClassifierScheme,
    EdgeFeatureExtractor,
    train_from_ground_truth,
)

ALL_ALGORITHMS = sorted(PRUNING_ALGORITHMS)


def run(blocks, algorithm, execution=None, scheme="ECBS", **kwargs):
    return meta_block(
        blocks,
        scheme=scheme,
        algorithm=algorithm,
        block_filtering_ratio=0.8,
        execution=execution,
        **kwargs,
    )


class TestSerialSpill:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_spilled_serial_matches_eager(
        self, small_clean_blocks, tmp_path, algorithm
    ):
        eager = run(small_clean_blocks, algorithm)
        spilled = run(
            small_clean_blocks,
            algorithm,
            execution=ExecutionConfig(spill_dir=tmp_path, memory_budget=4096),
        )
        assert isinstance(eager.comparisons, ComparisonView)
        assert isinstance(spilled.comparisons, ComparisonView)
        assert eager.spill_manifest is None
        assert spilled.spill_manifest is not None
        assert list(spilled.comparisons) == list(eager.comparisons)

    def test_result_stream_matches_pairs(self, small_clean_blocks, tmp_path):
        result = run(
            small_clean_blocks,
            "WEP",
            execution=ExecutionConfig(spill_dir=tmp_path),
        )
        streamed = [
            (int(left), int(right))
            for sources, targets in result.stream(batch_size=128)
            for left, right in zip(sources.tolist(), targets.tolist())
        ]
        assert streamed == list(result.comparisons)

    def test_manifest_reopens_after_run(self, small_clean_blocks, tmp_path):
        result = run(
            small_clean_blocks,
            "CEP",
            execution=ExecutionConfig(spill_dir=tmp_path),
        )
        reopened = load_spilled_view(result.spill_manifest)
        assert list(reopened) == list(result.comparisons)


class TestParallelSpill:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_spilled_parallel_matches_eager_serial(
        self, small_clean_blocks, tmp_path, algorithm, backend
    ):
        eager = run(small_clean_blocks, algorithm)
        if backend == "threads":
            spilled = run(
                small_clean_blocks,
                algorithm,
                execution=ExecutionConfig(
                    parallel=2, spill_dir=tmp_path, memory_budget=1 << 14
                ),
            )
            assert spilled.parallel_backend == backend
            comparisons = spilled.comparisons
        else:
            # meta_block runs a single worker serially, so the in-process
            # chunked path is driven through the executor, on the same
            # filtered graph meta_block builds.
            weighting = OptimizedEdgeWeighting(
                BlockFiltering(0.8).process(small_clean_blocks), "ECBS"
            )
            with ParallelMetaBlockingExecutor(weighting, workers=1) as executor:
                assert executor.backend == backend
                comparisons = executor.prune(
                    PRUNING_ALGORITHMS[algorithm](),
                    sink=SpillSink(spill_dir=tmp_path, memory_budget=1 << 14),
                )
        assert comparisons.spill_manifest is not None
        assert list(comparisons) == list(eager.comparisons)

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_classifier_scheme_matches_serial(
        self, small_clean_clean, small_clean_blocks, tmp_path, algorithm
    ):
        # Match probabilities need no pruning code of their own: every
        # algorithm runs them on two threads and spilled, in serial order.
        filtered = BlockFiltering(0.8).process(small_clean_blocks)
        scheme = ClassifierScheme(
            train_from_ground_truth(
                EdgeFeatureExtractor(filtered), small_clean_clean.ground_truth
            )
        )
        eager = run(small_clean_blocks, algorithm, scheme=scheme)
        spilled = run(
            small_clean_blocks,
            algorithm,
            execution=ExecutionConfig(
                parallel=2, spill_dir=tmp_path, memory_budget=1 << 14
            ),
            scheme=scheme,
        )
        assert spilled.parallel_backend == "threads"
        assert spilled.spill_manifest is not None
        assert list(spilled.comparisons) == list(eager.comparisons)

    def test_workers_write_shards_directly(self, small_clean_blocks, tmp_path):
        # The owner never re-buffers worker output when spilling: chunk
        # results arrive as shard files written inside the run directory.
        result = run(
            small_clean_blocks,
            "WNP",
            execution=ExecutionConfig(parallel=2, spill_dir=tmp_path),
        )
        run_dir = result.spill_manifest.parent
        worker_shards = list(run_dir.glob("chunk-*.npy"))
        assert worker_shards, "expected worker-written chunk-*.npy shards"


class TestCrashCleanup:
    @pytest.mark.parametrize("parallel", [None, 2])
    def test_crash_mid_spill_removes_artifacts(
        self, small_clean_blocks, spill_leak_check, parallel, monkeypatch
    ):
        # Make the spill fail partway through: the first chunk lands fine,
        # the next one explodes. Serial pruning feeds the sink via append,
        # the parallel owner via adopt_shard — fail whichever comes second.
        # The sink's abort must then remove the whole run directory
        # (spill_leak_check asserts nothing is left).
        calls = {"n": 0}

        def flaky(original):
            def wrapper(self, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise OSError("disk full (simulated)")
                return original(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(SpillSink, "append", flaky(SpillSink.append))
        monkeypatch.setattr(
            SpillSink, "adopt_shard", flaky(SpillSink.adopt_shard)
        )
        with pytest.raises(OSError, match="disk full"):
            run(
                small_clean_blocks,
                "WEP",
                execution=ExecutionConfig(
                    parallel=parallel,
                    # Small edge chunks force several serial appends.
                    chunk_size=64,
                    spill_dir=spill_leak_check,
                    memory_budget=1024,
                ),
            )

    def test_executor_abort_cleans_spill_dir(
        self, small_clean_blocks, spill_leak_check
    ):
        # Same property one layer down: a failure inside the executor's
        # prune aborts the sink it was handed.
        weighting = OptimizedEdgeWeighting(small_clean_blocks, "JS")
        executor = ParallelMetaBlockingExecutor(weighting, workers=2)
        sink = SpillSink(spill_dir=spill_leak_check)

        class ExplodingAlgorithm(PRUNING_ALGORITHMS["WEP"]):
            @property
            def threshold(self):
                raise RuntimeError("boom before any edge is weighted")

            @threshold.setter
            def threshold(self, value):
                pass

        try:
            with pytest.raises(RuntimeError, match="boom"):
                executor.prune(ExplodingAlgorithm(), sink=sink)
        finally:
            executor.close()
        assert not sink.directory.exists()


class TestShardValidation:
    """Length + checksum validation of spilled shards (fault tolerance)."""

    def _spilled(self, blocks, spill_dir):
        result = run(
            blocks,
            "WEP",
            execution=ExecutionConfig(spill_dir=spill_dir, memory_budget=2048),
        )
        return result

    def test_validate_accepts_intact_run(self, small_clean_blocks, tmp_path):
        result = self._spilled(small_clean_blocks, tmp_path)
        view = load_spilled_view(result.spill_manifest, validate=True)
        assert list(view) == list(result.comparisons)
        result.comparisons.release()

    def test_validate_detects_truncated_shard(self, small_clean_blocks, tmp_path):
        from repro.core.faults import SpillCorrupted, truncate_shard

        result = self._spilled(small_clean_blocks, tmp_path)
        manifest = Path(result.spill_manifest)
        entry = json.loads(manifest.read_text())["shards"][0]
        truncate_shard(manifest.parent / entry["file"])
        with pytest.raises(SpillCorrupted):
            load_spilled_view(manifest, validate=True)
        result.comparisons.release()

    def test_validate_detects_flipped_payload(self, small_clean_blocks, tmp_path):
        from repro.core.faults import SpillCorrupted

        result = self._spilled(small_clean_blocks, tmp_path)
        manifest = Path(result.spill_manifest)
        entry = json.loads(manifest.read_text())["shards"][0]
        shard_path = manifest.parent / entry["file"]
        stacked = np.load(shard_path)
        stacked[0, 0] += 1  # same length, different content: CRC must catch it
        np.save(shard_path, stacked)
        with pytest.raises(SpillCorrupted, match="checksum"):
            load_spilled_view(manifest, validate=True)
        result.comparisons.release()

    def test_validate_detects_missing_shard(self, small_clean_blocks, tmp_path):
        from repro.core.faults import SpillCorrupted

        result = self._spilled(small_clean_blocks, tmp_path)
        manifest = Path(result.spill_manifest)
        entry = json.loads(manifest.read_text())["shards"][0]
        (manifest.parent / entry["file"]).unlink()
        with pytest.raises(SpillCorrupted, match="missing"):
            load_spilled_view(manifest, validate=True)
        result.comparisons.release()

    def test_manifest_version_mismatch_rejected(self, small_clean_blocks, tmp_path):
        result = self._spilled(small_clean_blocks, tmp_path)
        manifest = Path(result.spill_manifest)
        payload = json.loads(manifest.read_text())
        payload["version"] = 999
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="manifest version"):
            load_spilled_view(manifest, validate=True)
        result.comparisons.release()

    def test_write_shard_checksum_round_trips(self, tmp_path):
        from repro.datamodel.sinks import pair_checksum

        sources = np.array([1, 2, 3], dtype=np.int64)
        targets = np.array([601, 602, 603], dtype=np.int64)
        name, crc = SpillSink.write_shard(tmp_path, sources, targets)
        stacked = np.load(tmp_path / name)
        assert crc == pair_checksum(stacked[0], stacked[1])
        assert crc != pair_checksum(stacked[1], stacked[0])
