"""The unified ExecutionConfig surface: the one way to configure execution."""

from __future__ import annotations

import json

import pytest

from repro.blocking import TokenBlocking
from repro.core.execution import ExecutionConfig
from repro.core.pipeline import MetaBlockingWorkflow, meta_block
from repro.core.pruning import WeightedEdgePruning
from repro.datamodel.sinks import InMemorySink, SpillSink


class TestExecutionConfig:
    def test_defaults_run_serial_in_memory(self):
        config = ExecutionConfig()
        assert config.parallel is None
        assert not config.spills
        assert isinstance(config.make_sink(), InMemorySink)

    def test_spill_dir_and_memory_budget_make_spill_sinks(self, tmp_path):
        for config in (
            ExecutionConfig(spill_dir=tmp_path),
            ExecutionConfig(memory_budget=1 << 20),
            ExecutionConfig(spill_dir=tmp_path, memory_budget=1 << 20),
        ):
            assert config.spills
            sink = config.make_sink()
            assert isinstance(sink, SpillSink)
            sink.abort()

    def test_validation(self):
        # The backend follows from the worker count; there is no knob.
        with pytest.raises(TypeError, match="parallel_backend"):
            ExecutionConfig(parallel_backend="threads")
        with pytest.raises(ValueError, match="chunks must be positive"):
            ExecutionConfig(chunks=0)
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            ExecutionConfig(chunk_size=-5)
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionConfig(chunk_size="huge")
        with pytest.raises(ValueError, match="memory_budget must be positive"):
            ExecutionConfig(memory_budget=0)

    def test_chunk_size_auto_is_the_default(self):
        assert ExecutionConfig().chunk_size == "auto"
        assert ExecutionConfig(chunk_size="auto").chunk_size == "auto"
        assert ExecutionConfig(chunk_size=None).chunk_size is None

    def test_resume_from_implies_spilling(self, tmp_path):
        config = ExecutionConfig(resume_from=tmp_path / "run-1-aa")
        assert config.spills

    def test_dict_round_trip(self, tmp_path):
        config = ExecutionConfig(
            parallel=2,
            chunks=3,
            chunk_size=4096,
            spill_dir=tmp_path,
            memory_budget=1 << 16,
            resume_from=tmp_path / "run-1-aa",
        )
        payload = config.to_dict()
        json.dumps(payload)  # must be JSON-serialisable (paths -> str)
        rebuilt = ExecutionConfig.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.spill_dir == str(tmp_path)

    def test_from_dict_ignores_foreign_keys(self):
        # Includes the chunk-supervision settings that older checkpoints
        # and workflow configs still carry.
        config = ExecutionConfig.from_dict(
            {
                "parallel": 2,
                "scheme": "JS",
                "algorithm": "WEP",
                "max_retries": 2,
                "chunk_timeout": 30.0,
                "backoff": 0.1,
            }
        )
        assert config == ExecutionConfig(parallel=2)


class TestPipelineIntegration:
    def test_meta_block_does_not_mutate_caller_algorithm(self, example_blocks):
        # Regression: the chunk_size override used to be written straight
        # onto the caller's instance and leaked across calls.
        algorithm = WeightedEdgePruning()
        before = algorithm.chunk_size
        result = meta_block(
            example_blocks,
            algorithm=algorithm,
            execution=ExecutionConfig(chunk_size=7),
        )
        assert algorithm.chunk_size == before
        assert result.algorithm.chunk_size == 7
        assert result.algorithm is not algorithm

    def test_meta_block_without_override_passes_instance_through(
        self, example_blocks
    ):
        algorithm = WeightedEdgePruning()
        result = meta_block(example_blocks, algorithm=algorithm)
        assert result.algorithm is algorithm

    def test_workflow_accepts_execution_config(self, small_clean_clean):
        workflow = MetaBlockingWorkflow(
            TokenBlocking(),
            execution=ExecutionConfig(parallel=2, chunk_size=1024),
        )
        assert workflow.execution.parallel == 2
        assert workflow.execution.chunk_size == 1024
        result = workflow.run(small_clean_clean)
        assert result.comparisons.cardinality > 0

    def test_workflow_config_round_trip_carries_execution(self, tmp_path):
        workflow = MetaBlockingWorkflow(
            TokenBlocking(),
            execution=ExecutionConfig(
                parallel=2, chunk_size=2048, spill_dir=tmp_path
            ),
        )
        config = workflow.to_config()
        json.dumps(config)
        rebuilt = MetaBlockingWorkflow.from_config(config)
        assert rebuilt.execution == ExecutionConfig(
            parallel=2, chunk_size=2048, spill_dir=str(tmp_path)
        )
        assert rebuilt.to_config() == config
