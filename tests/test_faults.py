"""Fault tolerance: supervision, retries, degradation, checkpoint-resume.

The injection harness (:mod:`repro.core.faults`) drives every scenario
deterministically: faults are keyed on the chunk's *attempt number*, so a
``kill`` fault fires on the first attempt and the retry succeeds without
any shared mutable state between processes. The resume scenarios run the
interrupted half in a real subprocess that hard-exits (``os._exit``)
mid-adoption — the same shape as a SIGKILL or OOM kill — and assert the
resumed run's output is bit-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro import BlockPurging, TokenBlocking
from repro.core import ExecutionConfig, meta_block, resume_run
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
    WorkerCrashed,
    active_plan,
    clear_faults,
    injected_faults,
    install_faults,
    leak_shm_segment,
    truncate_shard,
)
from repro.core.parallel import (
    ParallelMetaBlockingExecutor,
    fork_available,
    spawn_available,
)
from repro.core.pruning import CardinalityEdgePruning
from repro.core.weights import get_scheme
from repro.datamodel.sinks import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    SpillSink,
    read_run_checkpoint,
    sweep_stale_runs,
)
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset
from repro.utils.shm import (
    attach_segment,
    list_segments,
    pid_alive,
    segment_owner_pid,
    sweep_stale_segments,
)


def pool_backends() -> list[str]:
    backends = []
    if fork_available():
        backends.append("fork")
    if spawn_available():
        backends.append("shm-spawn")
    return backends


def all_backends() -> list[str]:
    return pool_backends() + ["in-process"]


@pytest.fixture(autouse=True)
def _no_fault_leak():
    """No test may leave a fault plan installed (module global or env)."""
    yield
    clear_faults()


def _fault_config(backend: str, **overrides) -> ExecutionConfig:
    settings = {
        "parallel": 2,
        "parallel_backend": backend,
        "chunks": 4,
        "backoff": 0.01,
    }
    settings.update(overrides)
    return ExecutionConfig(**settings)


@pytest.fixture(scope="module")
def serial_wnp(small_clean_blocks):
    result = meta_block(small_clean_blocks, "JS", "WNP")
    return list(result.comparisons.pairs)


class TestTaxonomy:
    def test_hierarchy(self):
        for exc in (WorkerCrashed, ChunkTimeout, SpillCorrupted, RetriesExhausted):
            assert issubclass(exc, FaultToleranceError)
            assert issubclass(exc, RuntimeError)
        assert RETRYABLE_FAILURES == (WorkerCrashed, ChunkTimeout)
        assert not issubclass(InjectedFault, FaultToleranceError)

    def test_fault_validates_site_and_op(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault(site="nope")
        with pytest.raises(ValueError, match="unknown fault op"):
            Fault(op="nope")

    def test_matches_chunk_window(self):
        fault = Fault(op="kill", chunk=2, task="wnp", attempts=2)
        assert fault.matches_chunk("_chunk_original_wnp", 2, 0)
        assert fault.matches_chunk("_chunk_original_wnp", 2, 1)
        assert not fault.matches_chunk("_chunk_original_wnp", 2, 2)
        assert not fault.matches_chunk("_chunk_original_wnp", 3, 0)
        assert not fault.matches_chunk("_chunk_phase2", 2, 0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault(op="kill", chunk=1),
                Fault(site="adopt", op="exit", after=3),
                Fault(op="delay", seconds=0.5, task="wep"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_mirrors_into_environment(self):
        plan = FaultPlan((Fault(op="kill", chunk=0),))
        install_faults(plan)
        try:
            assert FaultPlan.from_json(os.environ[FAULTS_ENV]) == plan
            assert active_plan() == plan
        finally:
            clear_faults()
        assert FAULTS_ENV not in os.environ
        assert active_plan() is None

    def test_plan_read_back_from_environment(self, monkeypatch):
        # A worker that never called install_faults sees the inherited env.
        plan = FaultPlan((Fault(op="error", chunk=7),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert active_plan() == plan

    def test_context_manager_cleans_up(self):
        with injected_faults(Fault(op="kill")) as plan:
            assert active_plan() == plan
        assert active_plan() is None


class TestSupervisedRetries:
    @pytest.mark.parametrize("backend", all_backends())
    def test_worker_kill_is_retried(
        self, small_clean_blocks, serial_wnp, backend, shm_leak_check
    ):
        with injected_faults(Fault(op="kill", chunk=0, task="wnp")):
            result = meta_block(
                small_clean_blocks,
                "JS",
                "WNP",
                execution=_fault_config(backend),
            )
        assert list(result.comparisons.pairs) == serial_wnp
        assert result.fault_stats["worker_crashes"] >= 1
        assert result.fault_stats["retries"] >= 1

    @pytest.mark.parametrize("backend", all_backends())
    def test_chunk_timeout_is_retried(
        self, small_clean_blocks, serial_wnp, backend, shm_leak_check
    ):
        # The pool backends really stall a worker past the deadline; the
        # in-process backend simulates the timeout by raising it directly.
        with injected_faults(
            Fault(op="delay", seconds=30.0, chunk=0, task="wnp")
        ):
            result = meta_block(
                small_clean_blocks,
                "JS",
                "WNP",
                execution=_fault_config(backend, chunk_timeout=1.0),
            )
        assert list(result.comparisons.pairs) == serial_wnp
        assert result.fault_stats["chunk_timeouts"] >= 1
        assert result.fault_stats["retries"] >= 1

    @pytest.mark.parametrize("backend", all_backends())
    def test_kill_plus_timeout_completes_everywhere(
        self, small_clean_blocks, serial_wnp, backend, shm_leak_check
    ):
        # The acceptance scenario: one worker kill AND one chunk timeout in
        # the same run, on every backend, still bit-identical to serial.
        with injected_faults(
            Fault(op="kill", chunk=0, task="wnp"),
            Fault(op="delay", seconds=30.0, chunk=3, task="wnp"),
        ):
            result = meta_block(
                small_clean_blocks,
                "JS",
                "WNP",
                execution=_fault_config(backend, chunk_timeout=1.5),
            )
        assert list(result.comparisons.pairs) == serial_wnp
        stats = result.fault_stats
        assert stats["worker_crashes"] >= 1
        assert stats["chunk_timeouts"] >= 1
        assert stats["retries"] >= 2

    def test_deterministic_error_is_not_retried(self, small_clean_blocks):
        with injected_faults(Fault(op="error", chunk=0, task="wnp")):
            with pytest.raises(InjectedFault):
                meta_block(
                    small_clean_blocks,
                    "JS",
                    "WNP",
                    execution=_fault_config("in-process"),
                )

    def test_retries_exhausted_in_process(self, small_clean_blocks):
        # in-process is the bottom of the degradation ladder: a chunk that
        # keeps failing there surfaces as RetriesExhausted.
        with injected_faults(
            Fault(op="kill", chunk=0, task="wnp", attempts=99)
        ):
            with pytest.raises(RetriesExhausted):
                meta_block(
                    small_clean_blocks,
                    "JS",
                    "WNP",
                    execution=_fault_config("in-process", max_retries=1),
                )

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_degrades_to_in_process(
        self, small_clean_blocks, serial_wnp, shm_leak_check
    ):
        # attempts=2 with max_retries=1: both fork attempts die, the
        # executor degrades, and the in-process attempt (attempt index 2)
        # is past the fault's window and succeeds.
        with injected_faults(
            Fault(op="kill", chunk=0, task="wnp", attempts=2)
        ):
            with pytest.warns(RuntimeWarning, match="degrading"):
                result = meta_block(
                    small_clean_blocks,
                    "JS",
                    "WNP",
                    execution=_fault_config("fork", max_retries=1),
                )
        assert list(result.comparisons.pairs) == serial_wnp
        assert result.fault_stats["degraded"] == ["in-process"]

    def test_pool_breaking_during_submission_is_a_crash(
        self, small_clean_blocks
    ):
        """A worker can die while later chunks are still being submitted:
        the broken pool refuses them, and they stay pending for a retry."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class BreaksOnSecondSubmit:
            submitted = 0

            def submit(self, dispatch, payload):
                self.submitted += 1
                if self.submitted > 1:
                    raise BrokenProcessPool("a worker died")
                future: Future = Future()
                future.set_result(payload[2])
                return future

        executor = ParallelMetaBlockingExecutor(
            OptimizedEdgeWeighting(small_clean_blocks, "JS"),
            workers=2,
            chunks=3,
            backend="in-process",
        )
        pending, results = [0, 1, 2], {}
        try:
            failure = executor._submit_and_collect(
                BreaksOnSecondSubmit(),
                None,
                {index: ("wnp", None, index, 0) for index in pending},
                pending,
                results,
            )
        finally:
            executor.close()
        assert failure is not None
        index, error = failure
        assert index == 1 and isinstance(error, WorkerCrashed)
        assert results == {0: 0} and pending == [1, 2]
        assert executor.stats["worker_crashes"] == 1

    def test_clean_parallel_run_reports_zero_counters(
        self, small_clean_blocks, shm_leak_check
    ):
        result = meta_block(
            small_clean_blocks,
            "JS",
            "WNP",
            execution=_fault_config(all_backends()[0]),
        )
        stats = result.fault_stats
        assert stats["retries"] == 0
        assert stats["worker_crashes"] == 0
        assert stats["chunk_timeouts"] == 0
        assert stats["resumed_chunks"] == 0
        assert stats["degraded"] == []

    def test_serial_run_has_empty_fault_stats(self, small_clean_blocks):
        assert meta_block(small_clean_blocks, "JS", "WNP").fault_stats == {}


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
    backend = "fork" if fork_available() else "shm-spawn"
    meta_block(
        _resume_blocks(),
        "JS",
        "WNP",
        execution=ExecutionConfig(
            parallel=2,
            parallel_backend=backend,
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
    # A hard-killed owner on the shm-spawn backend never unlinks its
    # segments — reclaim them the way an operator would (`repro clean`).
    sweep_stale_segments()
    runs = list(spill_dir.glob("run-*"))
    assert len(runs) == 1
    return runs[0]


@pytest.mark.skipif(not spawn_available(), reason="spawn start method unavailable")
class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def serial_pairs(self):
        result = meta_block(_resume_blocks(), "JS", "WNP")
        return list(result.comparisons.pairs)

    def test_interrupted_run_resumes_bit_identical(
        self, tmp_path, serial_pairs, shm_leak_check
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

    def test_corrupted_shard_is_reexecuted(
        self, tmp_path, serial_pairs, shm_leak_check
    ):
        run_dir = _run_interrupted(tmp_path / "spill")
        checkpoint = read_run_checkpoint(run_dir)
        truncate_shard(run_dir / checkpoint["chunks"][0]["file"])

        resumed = resume_run(_resume_blocks(), run_dir)
        assert list(resumed.comparisons) == serial_pairs
        # The torn shard's chunk was invalidated and re-run.
        assert resumed.fault_stats["resumed_chunks"] == 1
        resumed.comparisons.release()

    def test_signature_mismatch_raises(self, tmp_path, shm_leak_check):
        run_dir = _run_interrupted(tmp_path / "spill")
        checkpoint_path = run_dir / CHECKPOINT_NAME
        state = json.loads(checkpoint_path.read_text())
        state["signature"]["chunks"] = 99
        checkpoint_path.write_text(json.dumps(state))
        with pytest.raises(SpillCorrupted, match="signature"):
            resume_run(_resume_blocks(), run_dir)
        # A usage error must not destroy the interrupted run's artifacts.
        assert checkpoint_path.is_file()

    def test_resume_from_config_field(
        self, tmp_path, serial_pairs, shm_leak_check
    ):
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
    def test_sweeps_segment_of_dead_owner(self):
        name = leak_shm_segment()
        assert name in list_segments()
        owner = segment_owner_pid(name)
        assert owner is not None and not pid_alive(owner)
        swept = sweep_stale_segments()
        assert name in swept
        assert name not in list_segments()

    def test_dry_run_leaves_segment(self):
        name = leak_shm_segment()
        try:
            assert name in sweep_stale_segments(dry_run=True)
            assert name in list_segments()
        finally:
            segment = attach_segment(name)
            segment.unlink()
            segment.close()

    def test_live_owner_segment_is_kept(self):
        name = leak_shm_segment(pid=os.getpid())
        try:
            assert name not in sweep_stale_segments(dry_run=True)
        finally:
            segment = attach_segment(name)
            segment.unlink()
            segment.close()

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
