"""Fault tolerance: supervision, retries, degradation, checkpoint-resume.

The injection harness (:mod:`repro.core.faults`) drives every scenario
deterministically: faults are keyed on the chunk's *attempt number*, so a
``delay`` fault fires on the first attempt and the retry succeeds without
any shared mutable state. On the thread pool a ``delay`` really stalls the
chunk's thread, so the owner's timeout path runs for real; keep the delays
short, because a timed-out thread cannot be stopped and ``close()`` waits
for it. The resume scenarios run the interrupted half in a real subprocess
that hard-exits (``os._exit``) mid-adoption — the same shape as a SIGKILL
or OOM kill — and assert the resumed run's output is bit-identical to an
uninterrupted serial run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro import BlockPurging, TokenBlocking
from repro.core import BlockFiltering, ExecutionConfig, meta_block, resume_run
from repro.core.edge_weighting import OptimizedEdgeWeighting
from repro.core.faults import (
    FAULTS_ENV,
    RETRYABLE_FAILURES,
    ChunkTimeout,
    Fault,
    FaultPlan,
    FaultToleranceError,
    InjectedFault,
    RetriesExhausted,
    SpillCorrupted,
    active_plan,
    clear_faults,
    injected_faults,
    install_faults,
    truncate_shard,
)
from repro.core.parallel import PARALLEL_BACKENDS, ParallelMetaBlockingExecutor
from repro.core.pruning import CardinalityEdgePruning, WeightedNodePruning
from repro.core.weights import get_scheme
from repro.datamodel.sinks import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    SpillSink,
    read_run_checkpoint,
    sweep_stale_runs,
)
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset


@pytest.fixture(autouse=True)
def _no_fault_leak():
    """No test may leave a fault plan installed (module global or env)."""
    yield
    clear_faults()


def _fault_config(**overrides) -> ExecutionConfig:
    settings = {"parallel": 2, "chunks": 4, "backoff": 0.01}
    settings.update(overrides)
    return ExecutionConfig(**settings)


def _supervised_wnp(blocks, backend: str, **settings):
    """WNP through the supervised executor on ``backend``.

    Two workers resolve to the thread pool, one to the in-process path.
    The input is filtered like ``meta_block``'s default (r=0.8), so the
    pairs compare equal to a serial ``meta_block`` run. Returns
    ``(pairs, stats)``.
    """
    weighting = OptimizedEdgeWeighting(BlockFiltering(0.8).process(blocks), "JS")
    workers = 2 if backend == "threads" else 1
    with ParallelMetaBlockingExecutor(
        weighting, workers=workers, chunks=4, backoff=0.01, **settings
    ) as executor:
        assert executor.backend == backend
        pairs = list(executor.prune(WeightedNodePruning()).pairs)
    return pairs, executor.stats


def _assert_no_orphan_shards(result) -> None:
    """The run directory holds exactly the shards its manifest adopted."""
    manifest = json.loads(result.spill_manifest.read_text())
    adopted = {shard["file"] for shard in manifest["shards"]}
    on_disk = {path.name for path in result.spill_manifest.parent.glob("*.npy")}
    assert on_disk == adopted


@pytest.fixture(scope="module")
def serial_wnp(small_clean_blocks):
    result = meta_block(small_clean_blocks, "JS", "WNP")
    return list(result.comparisons.pairs)


class TestTaxonomy:
    def test_hierarchy(self):
        for exc in (ChunkTimeout, SpillCorrupted, RetriesExhausted):
            assert issubclass(exc, FaultToleranceError)
            assert issubclass(exc, RuntimeError)
        assert RETRYABLE_FAILURES == (ChunkTimeout,)
        assert not issubclass(InjectedFault, FaultToleranceError)

    def test_fault_validates_site_and_op(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault(site="nope")
        with pytest.raises(ValueError, match="unknown fault op"):
            Fault(op="nope")

    def test_matches_chunk_window(self):
        fault = Fault(op="delay", chunk=2, task="wnp", attempts=2)
        assert fault.matches_chunk("wnp:select", 2, 0)
        assert fault.matches_chunk("rcwnp:retain", 2, 1)
        assert not fault.matches_chunk("wnp:select", 2, 2)
        assert not fault.matches_chunk("wnp:select", 3, 0)
        assert not fault.matches_chunk("recnp:retain", 2, 0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault(op="error", chunk=1),
                Fault(site="adopt", op="exit", after=3),
                Fault(op="delay", seconds=0.5, task="wep"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_mirrors_into_environment(self):
        plan = FaultPlan((Fault(op="delay", chunk=0),))
        install_faults(plan)
        try:
            assert FaultPlan.from_json(os.environ[FAULTS_ENV]) == plan
            assert active_plan() == plan
        finally:
            clear_faults()
        assert FAULTS_ENV not in os.environ
        assert active_plan() is None

    def test_plan_read_back_from_environment(self, monkeypatch):
        # A child process that never called install_faults sees the
        # inherited env.
        plan = FaultPlan((Fault(op="error", chunk=7),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert active_plan() == plan

    def test_context_manager_cleans_up(self):
        with injected_faults(Fault()) as plan:
            assert active_plan() == plan
        assert active_plan() is None


class TestSupervisedRetries:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_chunk_timeout_is_retried(
        self, small_clean_blocks, serial_wnp, backend
    ):
        # The thread pool really stalls chunk 0 past the deadline; the
        # in-process backend simulates the timeout by raising it directly.
        with injected_faults(
            Fault(op="delay", seconds=0.5, chunk=0, task="wnp")
        ):
            pairs, stats = _supervised_wnp(
                small_clean_blocks, backend, chunk_timeout=0.2
            )
        assert pairs == serial_wnp
        assert stats["chunk_timeouts"] >= 1
        assert stats["retries"] >= 1

    def test_deterministic_error_is_not_retried(self, small_clean_blocks):
        with injected_faults(Fault(op="error", chunk=0, task="wnp")):
            with pytest.raises(InjectedFault):
                meta_block(
                    small_clean_blocks,
                    "JS",
                    "WNP",
                    execution=_fault_config(),
                )

    def test_retries_exhausted_in_process(self, small_clean_blocks):
        # in-process is the bottom of the degradation ladder: a chunk that
        # keeps failing there surfaces as RetriesExhausted.
        with injected_faults(
            Fault(op="delay", chunk=0, task="wnp", attempts=99)
        ):
            with pytest.raises(RetriesExhausted):
                _supervised_wnp(small_clean_blocks, "in-process", max_retries=1)

    def test_degrades_to_in_process(self, small_clean_blocks, serial_wnp):
        # attempts=2 with max_retries=1: both thread-pool attempts time
        # out, the executor degrades, and the in-process attempt (attempt
        # index 2) is past the fault's window and succeeds.
        with injected_faults(
            Fault(op="delay", seconds=0.5, chunk=0, task="wnp", attempts=2)
        ):
            with pytest.warns(RuntimeWarning, match="degrading"):
                result = meta_block(
                    small_clean_blocks,
                    "JS",
                    "WNP",
                    execution=_fault_config(max_retries=1, chunk_timeout=0.2),
                )
        assert list(result.comparisons.pairs) == serial_wnp
        assert result.fault_stats["degraded"] == ["in-process"]
        assert result.parallel_backend == "in-process"

    def test_clean_parallel_run_reports_zero_counters(self, small_clean_blocks):
        result = meta_block(
            small_clean_blocks, "JS", "WNP", execution=_fault_config()
        )
        assert result.parallel_backend == "threads"
        assert result.fault_stats == {
            "retries": 0,
            "chunk_timeouts": 0,
            "resumed_chunks": 0,
            "degraded": [],
        }

    def test_serial_run_has_empty_fault_stats(self, small_clean_blocks):
        assert meta_block(small_clean_blocks, "JS", "WNP").fault_stats == {}


class TestAbandonedChunks:
    """A timed-out chunk's thread cannot be stopped, and the chunks still
    in flight when it timed out keep running: none of them may leave a
    shard in a spilled run that the manifest does not list."""

    def _spilled_wnp(self, blocks, spill_dir, *faults):
        with injected_faults(*faults):
            return meta_block(
                blocks,
                "JS",
                "WNP",
                execution=ExecutionConfig(
                    parallel=2,
                    chunks=4,
                    spill_dir=spill_dir,
                    memory_budget=4096,
                    chunk_timeout=0.3,
                    backoff=0.0,
                ),
            )

    def test_in_flight_chunks_leave_no_orphan_shard(
        self, small_clean_blocks, serial_wnp, tmp_path
    ):
        # Chunk 0 times out at 0.3 s while chunk 1 is still running. Its
        # abandoned copy fails after the sleep, so any orphan here would
        # come from chunk 1 being re-run beside its own first copy.
        result = self._spilled_wnp(
            small_clean_blocks,
            tmp_path,
            Fault(op="delay", seconds=1.0, chunk=0, task="wnp"),
            Fault(op="error", chunk=0, task="wnp"),
            Fault(op="delay", seconds=0.5, chunk=1, task="wnp"),
        )
        assert list(result.comparisons) == serial_wnp
        assert result.fault_stats["chunk_timeouts"] >= 1
        _assert_no_orphan_shards(result)
        result.comparisons.release()

    def test_timed_out_chunk_leaves_no_orphan_shard(
        self, small_clean_blocks, serial_wnp, tmp_path
    ):
        # The abandoned copy of chunk 0 finishes after its retry was
        # adopted and writes a shard of its own.
        result = self._spilled_wnp(
            small_clean_blocks,
            tmp_path,
            Fault(op="delay", seconds=1.0, chunk=0, task="wnp"),
        )
        assert list(result.comparisons) == serial_wnp
        assert result.fault_stats["chunk_timeouts"] >= 1
        _assert_no_orphan_shards(result)
        result.comparisons.release()


# -- checkpoint / resume ------------------------------------------------------


def _resume_blocks():
    """Deterministic blocks rebuilt identically in parent and subprocess."""
    dataset = bibliographic_dataset(
        DatasetScale(size1=120, size2=300, num_duplicates=100), seed=11
    )
    return BlockPurging().process(TokenBlocking().build(dataset))


def _interrupted_run(spill_dir: str, after: int) -> None:
    """Subprocess body: spill a parallel run, hard-exit mid-adoption."""
    install_faults(
        FaultPlan((Fault(site="adopt", op="exit", after=after),))
    )
    meta_block(
        _resume_blocks(),
        "JS",
        "WNP",
        execution=ExecutionConfig(
            parallel=2,
            chunks=6,
            spill_dir=spill_dir,
            memory_budget=4096,
        ),
    )
    raise SystemExit("the injected adoption fault never fired")


def _run_interrupted(spill_dir: Path, after: int = 2) -> Path:
    """Run ``_interrupted_run`` in a subprocess; return its run directory."""
    context = multiprocessing.get_context("spawn")
    process = context.Process(
        target=_interrupted_run, args=(str(spill_dir), after)
    )
    process.start()
    process.join(180)
    if process.is_alive():  # pragma: no cover - hang safety net
        process.kill()
        process.join(10)
        pytest.fail("interrupted run timed out")
    assert process.exitcode == 70, "the owner should hard-exit mid-adoption"
    runs = list(spill_dir.glob("run-*"))
    assert len(runs) == 1
    return runs[0]


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def serial_pairs(self):
        result = meta_block(_resume_blocks(), "JS", "WNP")
        return list(result.comparisons.pairs)

    def test_interrupted_run_resumes_bit_identical(
        self, tmp_path, serial_pairs
    ):
        run_dir = _run_interrupted(tmp_path / "spill")
        assert (run_dir / CHECKPOINT_NAME).is_file()
        assert not (run_dir / MANIFEST_NAME).exists()
        checkpoint = read_run_checkpoint(run_dir)
        assert len(checkpoint["chunks"]) == 2
        assert checkpoint["config"]["algorithm"] == "WNP"

        resumed = resume_run(_resume_blocks(), run_dir)
        assert list(resumed.comparisons) == serial_pairs
        assert resumed.fault_stats["resumed_chunks"] == 2
        assert (run_dir / MANIFEST_NAME).is_file()
        assert not (run_dir / CHECKPOINT_NAME).exists()
        resumed.comparisons.release()
        assert not run_dir.exists()

    def test_corrupted_shard_is_reexecuted(self, tmp_path, serial_pairs):
        run_dir = _run_interrupted(tmp_path / "spill")
        checkpoint = read_run_checkpoint(run_dir)
        truncate_shard(run_dir / checkpoint["chunks"][0]["file"])

        resumed = resume_run(_resume_blocks(), run_dir)
        assert list(resumed.comparisons) == serial_pairs
        # The torn shard's chunk was invalidated and re-run.
        assert resumed.fault_stats["resumed_chunks"] == 1
        resumed.comparisons.release()

    def test_signature_mismatch_raises(self, tmp_path):
        run_dir = _run_interrupted(tmp_path / "spill")
        checkpoint_path = run_dir / CHECKPOINT_NAME
        state = json.loads(checkpoint_path.read_text())
        state["signature"]["chunks"] = 99
        checkpoint_path.write_text(json.dumps(state))
        with pytest.raises(SpillCorrupted, match="signature"):
            resume_run(_resume_blocks(), run_dir)
        # A usage error must not destroy the interrupted run's artifacts.
        assert checkpoint_path.is_file()

    def test_resume_from_config_field(self, tmp_path, serial_pairs):
        # The low-level path: resume_from on the ExecutionConfig instead of
        # the resume_run convenience wrapper.
        run_dir = _run_interrupted(tmp_path / "spill")
        resumed = meta_block(
            _resume_blocks(),
            "JS",
            "WNP",
            execution=ExecutionConfig(
                parallel=2, chunks=6, resume_from=run_dir
            ),
        )
        assert list(resumed.comparisons) == serial_pairs
        assert resumed.fault_stats["resumed_chunks"] >= 1
        resumed.comparisons.release()

    def test_stored_parallel_backend_is_ignored(self, tmp_path, serial_pairs):
        # Checkpoints written while a pool backend could still be chosen
        # carry that choice in their stored execution settings; resuming
        # one runs on the thread pool, bit-identical to serial.
        run_dir = _run_interrupted(tmp_path / "spill")
        checkpoint_path = run_dir / CHECKPOINT_NAME
        state = json.loads(checkpoint_path.read_text())
        state["config"]["execution"]["parallel_backend"] = "shm-spawn"
        checkpoint_path.write_text(json.dumps(state))
        resumed = resume_run(_resume_blocks(), run_dir)
        assert resumed.parallel_backend == "threads"
        assert list(resumed.comparisons) == serial_pairs
        assert resumed.fault_stats["resumed_chunks"] == 2
        resumed.comparisons.release()


class TestResumeValidation:
    def test_resume_requires_checkpoint(self, tmp_path):
        run_dir = tmp_path / "run-1-aa"
        run_dir.mkdir()
        with pytest.raises(ValueError, match="no checkpoint"):
            SpillSink.resume(run_dir)

    def test_resume_rejects_missing_directory(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            SpillSink.resume(tmp_path / "run-gone")

    def test_resume_rejects_finished_run(self, tmp_path):
        run_dir = tmp_path / "run-1-bb"
        run_dir.mkdir()
        (run_dir / CHECKPOINT_NAME).write_text("{}")
        (run_dir / MANIFEST_NAME).write_text("{}")
        with pytest.raises(ValueError, match="already finalized"):
            SpillSink.resume(run_dir)

    def test_resume_rejects_unknown_checkpoint_version(self, tmp_path):
        run_dir = tmp_path / "run-1-cc"
        run_dir.mkdir()
        (run_dir / CHECKPOINT_NAME).write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="checkpoint version"):
            SpillSink.resume(run_dir)

    def test_resume_requires_parallel_execution(self, small_clean_blocks, tmp_path):
        run_dir = tmp_path / "run-1-dd"
        run_dir.mkdir()
        (run_dir / CHECKPOINT_NAME).write_text(
            json.dumps({"version": 1, "signature": None, "config": None, "chunks": []})
        )
        with pytest.raises(ValueError, match="parallel"):
            meta_block(
                small_clean_blocks,
                "JS",
                "WNP",
                execution=ExecutionConfig(resume_from=run_dir),
            )

    def test_cep_resume_is_rejected(self, example_blocks, tmp_path):
        run_dir = tmp_path / "run-1-ee"
        run_dir.mkdir()
        (run_dir / CHECKPOINT_NAME).write_text(
            json.dumps({"version": 1, "signature": None, "config": None, "chunks": []})
        )
        sink = SpillSink.resume(run_dir)
        weighting = OptimizedEdgeWeighting(example_blocks, get_scheme("JS"))
        executor = ParallelMetaBlockingExecutor(weighting, workers=2)
        try:
            with pytest.raises(ValueError, match="CEP"):
                executor.prune(CardinalityEdgePruning(), sink=sink)
        finally:
            executor.close()
        # The usage error must not destroy the checkpoint directory.
        assert (run_dir / CHECKPOINT_NAME).is_file()


# -- stale-artifact sweeps (repro clean) --------------------------------------


class TestSweeps:
    def test_sweeps_orphaned_run_directory(self, tmp_path):
        dead = tmp_path / "run-4194304-feed"  # pid far beyond pid_max
        dead.mkdir()
        (dead / "chunk-0.npy").write_bytes(b"torn")
        finished = tmp_path / "run-4194305-cafe"
        finished.mkdir()
        (finished / MANIFEST_NAME).write_text("{}")
        alive = tmp_path / f"run-{os.getpid()}-beef"
        alive.mkdir()

        assert sweep_stale_runs(tmp_path, dry_run=True) == [dead]
        assert dead.exists()
        assert sweep_stale_runs(tmp_path) == [dead]
        assert not dead.exists()
        assert finished.exists()
        assert alive.exists()

    def test_missing_spill_dir_is_empty_sweep(self, tmp_path):
        assert sweep_stale_runs(tmp_path / "nope") == []
