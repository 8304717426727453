"""Unit tests for the meta_block facade and the full workflow."""

import logging

import pytest

from repro.blocking import CanopyClustering, SortedNeighborhoodBlocking, TokenBlocking
from repro.core.block_filtering import BlockFiltering
from repro.core.pipeline import (
    MetaBlockingWorkflow,
    get_pruning,
    meta_block,
)
from repro.core.pruning import PruningAlgorithm, WeightedEdgePruning
from repro.datamodel.blocks import BlockCollection
from repro.evaluation import evaluate


class TestMetaBlockFacade:
    def test_defaults_produce_result(self, small_dirty, small_dirty_blocks):
        result = meta_block(small_dirty_blocks)
        assert result.comparisons.cardinality > 0
        assert result.filtered_blocks is not None
        assert result.overhead_seconds > 0

    def test_no_filtering(self, small_dirty_blocks):
        result = meta_block(small_dirty_blocks, block_filtering_ratio=None)
        assert result.filtered_blocks is None
        assert result.filtering_seconds == 0.0

    @pytest.mark.parametrize("ratio", [0.8, None])
    def test_input_sorted_once(self, small_dirty_blocks, monkeypatch, ratio):
        """Block Filtering sorts its input itself; meta_block must not sort
        it a second time."""
        calls = []
        original = BlockCollection.sorted_by_cardinality

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(BlockCollection, "sorted_by_cardinality", counting)
        meta_block(small_dirty_blocks, block_filtering_ratio=ratio)
        assert len(calls) == 1

    def test_backend_selection(self, example_blocks):
        optimized = meta_block(example_blocks, backend="optimized")
        original = meta_block(example_blocks, backend="original")
        assert sorted(optimized.comparisons.pairs) == sorted(
            original.comparisons.pairs
        )

    def test_unknown_backend(self, example_blocks):
        with pytest.raises(ValueError, match="unknown weighting backend"):
            meta_block(example_blocks, backend="quantum")

    def test_unknown_algorithm(self, example_blocks):
        with pytest.raises(ValueError, match="unknown pruning algorithm"):
            meta_block(example_blocks, algorithm="XYZ")

    def test_algorithm_instance_passthrough(self, example_blocks):
        algorithm = WeightedEdgePruning(threshold=0.25)
        result = meta_block(
            example_blocks, algorithm=algorithm, block_filtering_ratio=None
        )
        assert result.algorithm is algorithm
        assert result.comparisons.cardinality == 5

    def test_get_pruning_resolution(self):
        assert isinstance(get_pruning("WEP"), PruningAlgorithm)
        instance = WeightedEdgePruning()
        assert get_pruning(instance) is instance


class TestDebugLogging:
    """``||B||`` walks every block, so it is computed only for DEBUG."""

    @staticmethod
    def _count_reads(monkeypatch) -> dict:
        reads: dict = {}
        for name in ("cardinality", "aggregate_size"):
            getter = getattr(BlockCollection, name).fget

            def counted(self, _name=name, _getter=getter):
                reads[_name] = reads.get(_name, 0) + 1
                return _getter(self)

            monkeypatch.setattr(BlockCollection, name, property(counted))
        return reads

    def test_collection_sums_skipped_above_debug(
        self, small_dirty_blocks, monkeypatch, caplog
    ):
        caplog.set_level(logging.INFO, logger="repro.core.pipeline")
        reads = self._count_reads(monkeypatch)
        result = meta_block(
            small_dirty_blocks, algorithm="ReCNP", block_filtering_ratio=0.8
        )
        assert result.comparisons.cardinality > 0
        assert reads == {}

    def test_filtering_message_at_debug(self, small_dirty_blocks, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.core.pipeline")
        meta_block(small_dirty_blocks, algorithm="ReCNP", block_filtering_ratio=0.8)
        filtered = BlockFiltering(0.8).process(small_dirty_blocks)
        assert (
            f"||B|| {small_dirty_blocks.cardinality} -> {filtered.cardinality}"
            in caplog.text
        )


class TestMetaBlockingWorkflow:
    def test_end_to_end_dirty(self, small_dirty):
        workflow = MetaBlockingWorkflow(
            TokenBlocking(), scheme="JS", algorithm="RcWNP"
        )
        result = workflow.run(small_dirty)
        report = evaluate(
            result.comparisons,
            small_dirty.ground_truth,
            reference_cardinality=small_dirty.brute_force_comparisons,
        )
        assert report.pc > 0.7
        assert report.rr is not None and report.rr > 0.9
        assert "blocking" in result.stage_seconds
        assert "purging" in result.stage_seconds

    def test_end_to_end_clean_clean(self, small_clean_clean):
        workflow = MetaBlockingWorkflow(
            TokenBlocking(), scheme="ECBS", algorithm="CNP"
        )
        result = workflow.run(small_clean_clean)
        report = evaluate(result.comparisons, small_clean_clean.ground_truth)
        assert report.pc > 0.7

    def test_rejects_redundancy_neutral_blocking(self):
        with pytest.raises(ValueError, match="not redundancy-positive"):
            MetaBlockingWorkflow(SortedNeighborhoodBlocking())

    def test_rejects_redundancy_negative_blocking(self):
        with pytest.raises(ValueError, match="not redundancy-positive"):
            MetaBlockingWorkflow(CanopyClustering())

    def test_overhead_includes_all_stages(self, small_dirty):
        workflow = MetaBlockingWorkflow(TokenBlocking())
        result = workflow.run(small_dirty)
        assert result.overhead_seconds >= (
            result.filtering_seconds + result.pruning_seconds
        )
