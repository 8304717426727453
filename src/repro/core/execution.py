"""Unified execution configuration for the meta-blocking pipeline.

:class:`ExecutionConfig` is one value object for every execution knob of
:func:`~repro.core.pipeline.meta_block`, the workflow, the streaming
resolver and the CLI: *what* to compute stays in the pipeline signature
(blocks, scheme, algorithm), *how* to run it lives here, and nowhere else.
There is no per-chunk timeout or retry: a pool thread cannot be stopped,
and a node range run again returns the same pairs at the same cost (see
:mod:`repro.core.parallel`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.core.wal import FSYNC_POLICIES
from repro.datamodel.sinks import ComparisonSink, InMemorySink, SpillSink


def _require_int(name: str, value: "int | None", minimum: int) -> None:
    """Construction-time guard: fail here, not deep inside the executor."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        kind = "positive" if minimum == 1 else f">= {minimum}"
        raise ValueError(f"{name} must be {kind}, got {value}")


def _require_number(name: str, value: "float | None", minimum: float) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if value <= minimum:
        raise ValueError(f"{name} must be > {minimum}, got {value}")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a meta-blocking run executes; never what it computes.

    Parameters
    ----------
    parallel:
        Thread count for the pruning stage; ``None``/``1`` runs serially,
        ``0`` uses one thread per usable CPU core.
    chunks:
        Contiguous node partitions for the parallel executor (default
        ``4 × workers``).
    chunk_size:
        ``"auto"`` (the default) uses the stream's default batch size; an
        explicit integer sets the edges per
        :class:`~repro.core.edge_stream.EdgeBatch` chunk in the batched
        pruning paths. Never affects the retained comparisons. (The
        parallel executor's node ranges are always balanced by Entity
        Index comparison mass.)
    spill_dir:
        Directory for out-of-core output. When set, retained comparisons are
        spilled to ``.npy`` shards in a unique run subdirectory instead of
        being held in RAM, and the result's
        :class:`~repro.datamodel.sinks.ComparisonView` memory-maps them
        back.
    memory_budget:
        Approximate bound, in bytes, on retained comparisons resident in
        RAM. Implies spilling (to ``spill_dir`` when also set, else to a
        private temporary directory) and sizes the shards accordingly.
    resume_from:
        Path of an interrupted spill ``run-*`` directory. The run's
        checkpoint is reopened, completed chunks are validated and skipped,
        and only unfinished chunks execute
        (:func:`~repro.core.pipeline.resume_run` builds the whole call from
        the stored configuration).
    compact_ratio:
        Streaming-only: the delta-mass fraction at which
        :class:`~repro.incremental.IncrementalMetaBlocking` compacts its
        :class:`~repro.blockprocessing.delta_index.DeltaEntityIndex` into a
        fresh base CSR (in ``(0, 1]``; e.g. ``0.25`` compacts once a
        quarter of all block memberships live in the delta).  ``None``
        (default) never auto-compacts. Ignored by the batch pipeline.
    compact_dir:
        Streaming-only: directory where compactions persist their epoch
        snapshots (``epoch-NNNNNN`` subdirectories); swept by
        ``repro clean --compact-dir``. ``None`` keeps epochs in memory
        only.
    batch_size:
        Streaming-only: the coalescing-buffer capacity of
        :meth:`~repro.incremental.IncrementalMetaBlocking.submit` — that
        many buffered upserts are committed per fused
        :meth:`~repro.incremental.IncrementalMetaBlocking.add_batch` call.
        ``None`` (default) and ``1`` commit every upsert immediately.
        Ignored by the batch pipeline.
    wal_dir:
        Streaming-only: directory of the resolver's write-ahead log.
        When set, every committed upsert batch is appended as one
        CRC-framed record before it is acknowledged, compaction snapshots
        (with durability state) land in ``<wal_dir>/snapshots``, and
        :func:`repro.core.wal.recover_resolver` rebuilds the resolver
        after a crash. ``None`` (default) keeps serving memory-only.
    fsync_policy:
        Streaming-only: when to fsync WAL appends — one of
        :data:`repro.core.wal.FSYNC_POLICIES` (``"always"``, ``"batch"``,
        ``"off"``). ``None`` defaults to ``"batch"`` when ``wal_dir`` is
        set. Ignored without a WAL.
    """

    parallel: int | None = None
    chunks: int | None = None
    chunk_size: "int | str | None" = "auto"
    spill_dir: "str | os.PathLike[str] | None" = None
    memory_budget: int | None = None
    resume_from: "str | os.PathLike[str] | None" = None
    compact_ratio: float | None = None
    compact_dir: "str | os.PathLike[str] | None" = None
    batch_size: int | None = None
    wal_dir: "str | os.PathLike[str] | None" = None
    fsync_policy: str | None = None

    def __post_init__(self) -> None:
        _require_int("parallel", self.parallel, minimum=0)
        _require_int("chunks", self.chunks, minimum=1)
        if isinstance(self.chunk_size, str):
            if self.chunk_size != "auto":
                raise ValueError(
                    "chunk_size must be a positive integer or 'auto', got "
                    f"{self.chunk_size!r}"
                )
        else:
            _require_int("chunk_size", self.chunk_size, minimum=1)
        _require_int("memory_budget", self.memory_budget, minimum=1)
        _require_number("compact_ratio", self.compact_ratio, minimum=0)
        if self.compact_ratio is not None and self.compact_ratio > 1:
            raise ValueError(
                f"compact_ratio must be <= 1, got {self.compact_ratio}"
            )
        _require_int("batch_size", self.batch_size, minimum=1)
        if (
            self.fsync_policy is not None
            and self.fsync_policy not in FSYNC_POLICIES
        ):
            known = ", ".join(FSYNC_POLICIES)
            raise ValueError(
                f"unknown fsync_policy {self.fsync_policy!r}; known: {known}"
            )

    @property
    def spills(self) -> bool:
        """True when retained comparisons go to disk instead of RAM."""
        return (
            self.spill_dir is not None
            or self.memory_budget is not None
            or self.resume_from is not None
        )

    def make_sink(self) -> ComparisonSink:
        """A fresh single-use sink matching this configuration."""
        if self.resume_from is not None:
            return SpillSink.resume(
                self.resume_from, memory_budget=self.memory_budget
            )
        if self.spills:
            return SpillSink(
                spill_dir=self.spill_dir, memory_budget=self.memory_budget
            )
        return InMemorySink()

    def to_dict(self) -> dict:
        """JSON-serialisable form (paths become strings)."""
        return {
            "parallel": self.parallel,
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "spill_dir": None if self.spill_dir is None else str(self.spill_dir),
            "memory_budget": self.memory_budget,
            "resume_from": (
                None if self.resume_from is None else str(self.resume_from)
            ),
            "compact_ratio": self.compact_ratio,
            "compact_dir": (
                None if self.compact_dir is None else str(self.compact_dir)
            ),
            "batch_size": self.batch_size,
            "wal_dir": None if self.wal_dir is None else str(self.wal_dir),
            "fsync_policy": self.fsync_policy,
        }

    @classmethod
    def from_dict(cls, config: dict) -> "ExecutionConfig":
        """Build a config from a :meth:`to_dict` dictionary (extra keys
        ignored, missing keys defaulted).

        Ignoring extra keys keeps older spill checkpoints and workflow
        configs loading, e.g. those that still carry the removed
        ``parallel_backend``, ``max_retries``, ``chunk_timeout`` or
        ``backoff`` fields.
        """
        known = {field.name for field in fields(cls)}
        return cls(**{key: config[key] for key in known if key in config})


__all__ = ["ExecutionConfig"]
