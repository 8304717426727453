"""Out-of-core comparison sinks and the lazy :class:`ComparisonView`.

The pruning stage of meta-blocking is the last place the library used to
materialise an unbounded data structure: every retained edge was appended to
a Python list, so a run whose *output* exceeds RAM could not complete even
though the blocking graph itself is consumed as a bounded stream. This
module removes that ceiling by decoupling *where retained comparisons go*
from *how they are produced*:

* :class:`ComparisonSink` — the producer-side contract. Pruning algorithms
  (and the parallel executor's chunk tasks) push canonical ``(sources,
  targets)`` array chunks into a sink instead of extending a list.
* :class:`InMemorySink` — today's behaviour: chunks are buffered in RAM and
  the finalised view materialises the familiar pair list on demand.
* :class:`SpillSink` — chunks are flushed to numpy ``.npy`` shards under a
  spill directory, described by a small JSON manifest; the finalised view
  memory-maps the shards back, so peak RAM is bounded by the shard size no
  matter how many comparisons are retained.
* :class:`BoundedGeneratorSink` — a bounded hand-off queue for pipelined
  consumption: a producer thread prunes while the consumer drains batches,
  with back-pressure instead of buffering.

Every sink finalises into a :class:`ComparisonView` — a drop-in
:class:`~repro.datamodel.blocks.ComparisonCollection` subclass that is
iterable, ``len()``-able and sliceable without materialising the pair list,
and *bit-identical* to the eager collection when it does materialise
(``view.pairs`` equals the historical list element for element).

Lifecycle rules:

* a sink is single-use: ``append``/``adopt_shard`` then exactly one
  ``finalize`` or ``abort``;
* ``abort`` removes everything the sink wrote (shards and manifest alike) —
  pruning code calls it on any failure, so a crash mid-spill never leaks
  artifacts;
* a :class:`SpillSink` given no directory creates a private temporary one
  (``repro-spill-*``) that is deleted when its view is garbage-collected or
  explicitly :meth:`~ComparisonView.release`-d; a caller-supplied directory
  receives a unique ``run-*`` subdirectory whose artifacts outlive the view
  (call :meth:`ComparisonView.release` to delete them).
"""

from __future__ import annotations

import json
import os
import queue
import secrets
import shutil
import tempfile
import threading
import weakref
import zlib
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.datamodel.blocks import Comparison, ComparisonCollection

#: Default number of comparisons per spill shard.
DEFAULT_SHARD_PAIRS = 1 << 20

#: Bytes one buffered comparison costs in array form (two int64 ids).
PAIR_BYTES = 16

#: Manifest schema version written by :class:`SpillSink`.
MANIFEST_VERSION = 1

#: File name of the spill manifest inside a run directory.
MANIFEST_NAME = "manifest.json"

#: File name of the write-ahead checkpoint inside a run directory.
CHECKPOINT_NAME = "checkpoint.json"

#: Checkpoint schema version written by :class:`SpillSink`.
CHECKPOINT_VERSION = 1

Batch = tuple[np.ndarray, np.ndarray]


def pair_checksum(sources: np.ndarray, targets: np.ndarray) -> int:
    """CRC-32 over a canonical pair chunk (shard integrity fingerprint)."""
    crc = zlib.crc32(np.ascontiguousarray(sources, dtype=np.int64).tobytes())
    return zlib.crc32(
        np.ascontiguousarray(targets, dtype=np.int64).tobytes(), crc
    )


def _as_pair_arrays(
    sources: "np.ndarray | Sequence[int]", targets: "np.ndarray | Sequence[int]"
) -> Batch:
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise ValueError(
            "sources and targets must be equal-length 1-D arrays, got "
            f"shapes {sources.shape} and {targets.shape}"
        )
    return sources, targets


class ComparisonSink(ABC):
    """Producer-side contract for retained comparisons.

    Pruning emits *canonical* pairs (``sources[i] < targets[i]``) in chunk
    order; the sink preserves that order exactly, which is what makes every
    view bit-identical to the eager in-memory collection.
    """

    @abstractmethod
    def append(self, sources: np.ndarray, targets: np.ndarray) -> None:
        """Append one chunk of canonical pairs (equal-length int arrays)."""

    def append_pairs(self, pairs: Iterable[Comparison]) -> None:
        """Convenience: append Python ``(left, right)`` tuples."""
        rows = list(pairs)
        if not rows:
            return
        sources = np.fromiter(
            (left for left, _ in rows), dtype=np.int64, count=len(rows)
        )
        targets = np.fromiter(
            (right for _, right in rows), dtype=np.int64, count=len(rows)
        )
        self.append(sources, targets)

    @abstractmethod
    def finalize(self, num_entities: int) -> "ComparisonView":
        """Seal the sink and return the view over everything appended."""

    @abstractmethod
    def abort(self) -> None:
        """Discard the sink, removing anything it wrote (idempotent)."""


# -- views --------------------------------------------------------------------


class _BatchSource:
    """Backing store of a :class:`ComparisonView`: ordered pair batches."""

    num_pairs: int

    def iter_batches(self) -> Iterator[Batch]:
        raise NotImplementedError


class _ArraySource(_BatchSource):
    """In-memory batches (the :class:`InMemorySink` backing store)."""

    def __init__(self, batches: "list[Batch]") -> None:
        self.batches = batches
        self.num_pairs = int(sum(s.size for s, _ in batches))

    def iter_batches(self) -> Iterator[Batch]:
        return iter(self.batches)


class _SpillSource(_BatchSource):
    """Memory-mapped spill shards, iterated in manifest order."""

    def __init__(self, directory: Path, shards: "list[dict]") -> None:
        self.directory = directory
        self.shards = shards
        self.num_pairs = int(sum(entry["pairs"] for entry in shards))

    def iter_batches(self) -> Iterator[Batch]:
        for entry in self.shards:
            stacked = np.load(self.directory / entry["file"], mmap_mode="r")
            # Yield row views over the mapping; the mapping itself is
            # released as soon as the consumer moves to the next shard.
            yield stacked[0], stacked[1]


class ComparisonView(ComparisonCollection):
    """A lazy, sliceable :class:`ComparisonCollection` over a sink's output.

    Iteration, ``len``, indexing and ``stream()`` never materialise the full
    pair list; accessing :attr:`pairs` (or any inherited helper built on it)
    materialises once and caches. For spilled runs the batches are
    memory-mapped ``.npy`` shards, so a view over an arbitrarily large
    comparison set costs O(shard) resident memory to scan.
    """

    def __init__(
        self,
        source: _BatchSource,
        num_entities: int,
        spill_manifest: "Path | None" = None,
        cleanup: "Callable[[], None] | None" = None,
        auto_release: bool = False,
    ) -> None:
        self._source = source
        self.num_entities = num_entities
        self._spill_manifest = spill_manifest
        self._cleanup = cleanup
        self._pairs: "list[Comparison] | None" = None
        self._offsets: "np.ndarray | None" = None
        self._batches: "list[Batch] | None" = None
        self._finalizer: "weakref.finalize | None" = None
        if cleanup is not None and auto_release:
            self._finalizer = weakref.finalize(self, cleanup)

    # -- materialisation ------------------------------------------------------

    @property
    def pairs(self) -> "list[Comparison]":  # type: ignore[override]
        """The eager pair list (materialised once, then cached)."""
        if self._pairs is None:
            pairs: list[Comparison] = []
            for sources, targets in self._source.iter_batches():
                pairs.extend(zip(sources.tolist(), targets.tolist()))
            self._pairs = pairs
        return self._pairs

    @property
    def spill_manifest(self) -> "Path | None":
        """Path of the spill manifest, or ``None`` for in-memory views."""
        return self._spill_manifest

    # -- lazy container protocol ---------------------------------------------

    def __len__(self) -> int:
        return self._source.num_pairs

    @property
    def cardinality(self) -> int:  # type: ignore[override]
        return self._source.num_pairs

    def __iter__(self) -> Iterator[Comparison]:
        for sources, targets in self._source.iter_batches():
            yield from zip(sources.tolist(), targets.tolist())

    def iter_comparisons(self) -> Iterator[Comparison]:
        return iter(self)

    def stream(self, batch_size: "int | None" = None) -> Iterator[Batch]:
        """Yield ``(sources, targets)`` array batches lazily.

        Without ``batch_size`` the sink's natural chunking (spill shards,
        appended chunks) is passed through; with it, batches are re-chunked
        to at most ``batch_size`` pairs each.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        for sources, targets in self._source.iter_batches():
            if batch_size is None or sources.size <= batch_size:
                if sources.size:
                    yield sources, targets
                continue
            for start in range(0, int(sources.size), batch_size):
                stop = start + batch_size
                yield sources[start:stop], targets[start:stop]

    def _batch_offsets(self) -> "tuple[np.ndarray, list[Batch]]":
        if self._offsets is None or self._batches is None:
            self._batches = list(self._source.iter_batches())
            sizes = [int(s.size) for s, _ in self._batches]
            self._offsets = np.cumsum([0] + sizes)
        return self._offsets, self._batches

    def __getitem__(self, item: "int | slice"):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self))
            indices = range(start, stop, step)
            return [self._pair_at(i) for i in indices]
        index = int(item)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"comparison index {item} out of range")
        return self._pair_at(index)

    def _pair_at(self, index: int) -> Comparison:
        offsets, batches = self._batch_offsets()
        position = int(np.searchsorted(offsets, index, side="right")) - 1
        local = index - int(offsets[position])
        sources, targets = batches[position]
        return int(sources[local]), int(targets[local])

    # -- set-shaped helpers (streaming, no pair-list materialisation) ---------

    def distinct_comparisons(self) -> "set[Comparison]":
        distinct: set[Comparison] = set()
        for sources, targets in self._source.iter_batches():
            distinct.update(zip(sources.tolist(), targets.tolist()))
        return distinct

    def entity_ids(self) -> "set[int]":
        ids: set[int] = set()
        for sources, targets in self._source.iter_batches():
            ids.update(np.unique(sources).tolist())
            ids.update(np.unique(targets).tolist())
        return ids

    # -- lifecycle ------------------------------------------------------------

    def release(self) -> None:
        """Delete the view's spill artifacts (no-op for in-memory views).

        After a release the view can no longer be scanned unless the pair
        list was already materialised.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        cleanup, self._cleanup = self._cleanup, None
        if cleanup is not None:
            cleanup()

    def __repr__(self) -> str:
        kind = "spilled" if self._spill_manifest is not None else "in-memory"
        return f"ComparisonView(||B||={len(self)}, {kind})"


# -- in-memory sink -----------------------------------------------------------


class InMemorySink(ComparisonSink):
    """Buffer chunks in RAM — the historical eager behaviour."""

    def __init__(self) -> None:
        self._batches: list[Batch] = []
        self._sealed = False

    def append(self, sources, targets) -> None:
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        sources, targets = _as_pair_arrays(sources, targets)
        if sources.size:
            self._batches.append((sources, targets))

    def finalize(self, num_entities: int) -> ComparisonView:
        self._sealed = True
        return ComparisonView(_ArraySource(self._batches), num_entities)

    def abort(self) -> None:
        self._sealed = True
        self._batches = []


# -- spill-to-disk sink -------------------------------------------------------


class SpillSink(ComparisonSink):
    """Spill retained comparisons to chunked ``.npy`` shards.

    Parameters
    ----------
    spill_dir:
        Parent directory for the spill artifacts. Each sink creates a unique
        ``run-*`` subdirectory inside it (so concurrent runs never collide);
        ``None`` creates a private temporary directory that is removed when
        the finalised view is garbage-collected.
    shard_pairs:
        Comparisons per shard. Bounds the sink's resident buffer and the
        view's per-batch working set.
    memory_budget:
        Alternative sizing: an approximate bound, in bytes, on the retained
        pairs buffered in RAM at any moment (``shard_pairs = budget / 32``,
        buffer plus write copy). Ignored when ``shard_pairs`` is given.

    Shard format: each shard is one ``(2, n)`` int64 array — row 0 the
    sources, row 1 the targets — so a memory-mapped reader gets both columns
    as contiguous row slices. The manifest lists shards in append order;
    concatenating them reproduces the exact emission order of the run.

    Checkpointing: when the parallel executor adopts chunk-tagged shards
    (``adopt_shard(..., chunk=i, checksum=crc)``) the sink rewrites a small
    write-ahead ``checkpoint.json`` after every adoption. A run that is
    killed hard (SIGKILL, OOM — anything that never reaches ``abort``)
    leaves the run directory with that checkpoint behind;
    :meth:`SpillSink.resume` reopens it and :meth:`begin_chunks` reports
    which chunks survived validation, so only unfinished work re-executes.
    Python-level failures still go through ``abort`` and remove everything,
    exactly as before.
    """

    def __init__(
        self,
        spill_dir: "str | os.PathLike[str] | None" = None,
        shard_pairs: "int | None" = None,
        memory_budget: "int | None" = None,
        resume_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if shard_pairs is None and memory_budget is not None:
            if memory_budget < 1:
                raise ValueError(
                    f"memory_budget must be positive, got {memory_budget}"
                )
            shard_pairs = max(1, memory_budget // (2 * PAIR_BYTES))
        if shard_pairs is None:
            shard_pairs = DEFAULT_SHARD_PAIRS
        if shard_pairs < 1:
            raise ValueError(f"shard_pairs must be positive, got {shard_pairs}")
        self.shard_pairs = int(shard_pairs)
        self._resume_state: "dict | None" = None
        if resume_dir is not None:
            if spill_dir is not None:
                raise ValueError("pass either spill_dir or resume_dir, not both")
            self.directory = Path(resume_dir)
            self._ephemeral = False
            self._resume_state = self._load_checkpoint(self.directory)
        elif spill_dir is None:
            self.directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._ephemeral = True
        else:
            parent = Path(spill_dir)
            parent.mkdir(parents=True, exist_ok=True)
            token = f"{os.getpid()}-{secrets.token_hex(4)}"
            self.directory = parent / f"run-{token}"
            self.directory.mkdir()
            self._ephemeral = False
        self._buffer: list[Batch] = []
        self._buffered = 0
        self._shards: list[dict] = []
        self._sealed = False
        self._adoptions = 0
        self._signature: "dict | None" = None
        self._run_config: "dict | None" = None
        self._chunk_records: "dict[int, dict]" = {}

    # -- checkpoint / resume --------------------------------------------------

    @classmethod
    def resume(
        cls,
        run_dir: "str | os.PathLike[str]",
        shard_pairs: "int | None" = None,
        memory_budget: "int | None" = None,
    ) -> "SpillSink":
        """Reopen an interrupted spill run from its ``run-*`` directory.

        Requires a checkpoint (the run adopted at least zero chunks and
        recorded its configuration) and no manifest (a manifest means the
        run finished — nothing to resume). The completed-chunk records are
        validated lazily by :meth:`begin_chunks`.
        """
        return cls(
            shard_pairs=shard_pairs,
            memory_budget=memory_budget,
            resume_dir=run_dir,
        )

    @staticmethod
    def _load_checkpoint(run_dir: Path) -> dict:
        if not run_dir.is_dir():
            raise ValueError(f"resume directory does not exist: {run_dir}")
        if (run_dir / MANIFEST_NAME).is_file():
            raise ValueError(
                f"run already finalized (manifest present): {run_dir}"
            )
        checkpoint_path = run_dir / CHECKPOINT_NAME
        if not checkpoint_path.is_file():
            raise ValueError(f"no checkpoint to resume from in {run_dir}")
        state = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported spill checkpoint version {state.get('version')!r}"
            )
        return state

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_NAME

    @property
    def resuming(self) -> bool:
        """True while reopened checkpoint state awaits :meth:`begin_chunks`."""
        return self._resume_state is not None

    @property
    def run_config(self) -> "dict | None":
        """The stored run configuration (from a checkpoint being resumed)."""
        if self._run_config is not None:
            return self._run_config
        if self._resume_state is not None:
            return self._resume_state.get("config")
        return None

    def record_run_config(self, config: dict) -> None:
        """Persist the run's configuration into the write-ahead checkpoint.

        Called by :func:`repro.core.pipeline.meta_block` before pruning
        starts, so even a run interrupted before its first adoption can be
        resumed with the same scheme/algorithm/execution settings.
        """
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        self._run_config = dict(config)
        self._write_checkpoint()

    def begin_chunks(self, signature: dict) -> "dict[int, dict]":
        """Declare the chunked pair phase; returns validated completed chunks.

        ``signature`` identifies the phase deterministically (task name,
        chunk count, algorithm, scheme, graph size). On a fresh sink it is
        simply recorded. On a resumed sink it must match the checkpointed
        signature (:class:`~repro.core.faults.SpillCorrupted` otherwise);
        each completed-chunk record is then validated — file present,
        ``(2, pairs)`` shape, CRC match — and invalid or orphaned shard
        files are deleted so their chunks re-execute. The returned mapping
        (chunk index → record) tells the executor what to skip.
        """
        from repro.core.faults import SpillCorrupted

        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        self._signature = dict(signature)
        completed: dict[int, dict] = {}
        if self._resume_state is not None:
            stored = self._resume_state.get("signature")
            if stored is not None and stored != self._signature:
                raise SpillCorrupted(
                    "checkpoint signature does not match the run being "
                    f"resumed: stored {stored!r}, current {self._signature!r}"
                )
            if self._run_config is None:
                self._run_config = self._resume_state.get("config")
            for record in self._resume_state.get("chunks", ()):
                index = int(record["chunk"])
                if self._validate_record(record):
                    completed[index] = record
                else:
                    (self.directory / record["file"]).unlink(missing_ok=True)
            self._prune_orphans(completed)
            self._resume_state = None
        self._chunk_records = {
            index: dict(record) for index, record in completed.items()
        }
        self._write_checkpoint()
        return completed

    def _validate_record(self, record: dict) -> bool:
        """True iff a checkpointed chunk's shard survives length+CRC checks."""
        path = self.directory / record["file"]
        if not path.is_file():
            return False
        try:
            stacked = np.load(path, mmap_mode="r")
        except Exception:
            return False  # torn write: numpy cannot even map the file
        if stacked.ndim != 2 or stacked.shape[0] != 2:
            return False
        if stacked.shape[1] != int(record["pairs"]):
            return False
        crc = record.get("crc")
        if crc is not None and pair_checksum(stacked[0], stacked[1]) != int(crc):
            return False
        return True

    def _prune_orphans(self, completed: "dict[int, dict]") -> None:
        """Delete shard files the checkpoint does not vouch for.

        A crash can leave worker-written shards that were never adopted;
        they would otherwise linger in the directory (and in the final
        view's cleanup) without appearing in any manifest.
        """
        keep = {record["file"] for record in completed.values()}
        keep.add(CHECKPOINT_NAME)
        for path in self.directory.iterdir():
            if path.is_file() and path.name not in keep:
                path.unlink(missing_ok=True)

    def readopt_chunk(self, chunk: int) -> None:
        """Splice a validated completed chunk into the output at this point.

        The executor calls this (instead of re-running the chunk) while
        walking chunks in submission order, so the manifest order of a
        resumed run equals an uninterrupted run's exactly.
        """
        record = self._chunk_records[int(chunk)]
        if self._buffered:
            self._flush_shard(self._buffered)
        entry = {"file": record["file"], "pairs": int(record["pairs"])}
        if record.get("crc") is not None:
            entry["crc"] = int(record["crc"])
        self._shards.append(entry)

    def _write_checkpoint(self) -> None:
        """Atomically rewrite the write-ahead checkpoint (tmp + rename)."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "signature": self._signature,
            "config": self._run_config,
            "chunks": [
                self._chunk_records[index]
                for index in sorted(self._chunk_records)
            ],
        }
        scratch = self.directory / (CHECKPOINT_NAME + ".tmp")
        scratch.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        os.replace(scratch, self.checkpoint_path)

    # -- producer side --------------------------------------------------------

    def append(self, sources, targets) -> None:
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        sources, targets = _as_pair_arrays(sources, targets)
        if not sources.size:
            return
        self._buffer.append((sources, targets))
        self._buffered += int(sources.size)
        while self._buffered >= self.shard_pairs:
            self._flush_shard(self.shard_pairs)

    def adopt_shard(
        self,
        file_name: str,
        pairs: int,
        chunk: "int | None" = None,
        checksum: "int | None" = None,
    ) -> None:
        """Register a shard written directly into :attr:`directory`.

        The parallel executor's workers write their chunk results as shards
        named by :meth:`shard_name` and the owner adopts them here *in
        submission order*, which keeps the manifest order equal to the
        serial emission order. Any pairs buffered through :meth:`append`
        are flushed first so interleavings cannot reorder the stream.

        When ``chunk`` is given the adoption is durable: the write-ahead
        checkpoint is rewritten to record the chunk as completed (with its
        ``checksum`` for later validation) *before* this call returns, so a
        crash any time afterwards can resume past it.
        """
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        if self._buffered:
            self._flush_shard(self._buffered)
        path = self.directory / file_name
        if not path.is_file():
            raise FileNotFoundError(f"adopted shard missing: {path}")
        entry = {"file": file_name, "pairs": int(pairs)}
        if checksum is not None:
            entry["crc"] = int(checksum)
        self._shards.append(entry)
        self._adoptions += 1
        if chunk is not None:
            record = {"chunk": int(chunk), **entry}
            self._chunk_records[int(chunk)] = record
            self._write_checkpoint()
        from repro.core.faults import fire_adoption_fault

        fire_adoption_fault(self._adoptions)

    @staticmethod
    def shard_name(tag: str = "chunk") -> str:
        """A collision-free shard file name for direct writers."""
        return f"{tag}-{os.getpid()}-{secrets.token_hex(4)}.npy"

    @staticmethod
    def write_shard(
        directory: "str | os.PathLike[str]", sources, targets
    ) -> "tuple[str, int]":
        """Write one ``(2, n)`` shard into ``directory``.

        Returns ``(file_name, crc)`` — the CRC travels back to the owner in
        the chunk result and is checkpointed alongside the adoption, so a
        resume can detect torn or corrupted shard writes.
        """
        sources, targets = _as_pair_arrays(sources, targets)
        name = SpillSink.shard_name()
        np.save(Path(directory) / name, np.vstack((sources, targets)))
        return name, pair_checksum(sources, targets)

    def _flush_shard(self, take: int) -> None:
        taken: list[Batch] = []
        remaining = take
        while remaining > 0 and self._buffer:
            sources, targets = self._buffer[0]
            if sources.size <= remaining:
                taken.append(self._buffer.pop(0))
                remaining -= int(sources.size)
            else:
                taken.append((sources[:remaining], targets[:remaining]))
                self._buffer[0] = (sources[remaining:], targets[remaining:])
                remaining = 0
        if not taken:
            return
        sources = np.concatenate([s for s, _ in taken])
        targets = np.concatenate([t for _, t in taken])
        name = f"shard-{len(self._shards):05d}-{secrets.token_hex(2)}.npy"
        np.save(self.directory / name, np.vstack((sources, targets)))
        self._shards.append(
            {
                "file": name,
                "pairs": int(sources.size),
                "crc": pair_checksum(sources, targets),
            }
        )
        self._buffered -= int(sources.size)

    # -- sealing --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def finalize(self, num_entities: int) -> ComparisonView:
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        if self._buffered:
            self._flush_shard(self._buffered)
        manifest = {
            "version": MANIFEST_VERSION,
            "num_entities": int(num_entities),
            "total_pairs": int(sum(entry["pairs"] for entry in self._shards)),
            "shard_pairs": self.shard_pairs,
            "shards": self._shards,
        }
        if self._chunk_records:
            manifest["chunks"] = [
                self._chunk_records[index]
                for index in sorted(self._chunk_records)
            ]
        self.manifest_path.write_text(
            json.dumps(manifest, indent=1), encoding="utf-8"
        )
        # The manifest supersedes the write-ahead checkpoint.
        self.checkpoint_path.unlink(missing_ok=True)
        self._sealed = True
        directory = self.directory
        cleanup = _removal(directory)
        return ComparisonView(
            _SpillSource(directory, list(self._shards)),
            num_entities,
            spill_manifest=self.manifest_path,
            cleanup=cleanup,
            auto_release=self._ephemeral,
        )

    def abort(self) -> None:
        """Remove the run directory and everything in it (idempotent).

        A reopened sink whose resume state was never consumed (the failure
        happened *before* :meth:`begin_chunks` — e.g. a checkpoint
        signature mismatch) wrote nothing of its own, so the interrupted
        run's artifacts are left intact for a corrected resume attempt.
        """
        if self._sealed and not self.directory.exists():
            return
        self._sealed = True
        self._buffer, self._buffered = [], 0
        if self._resume_state is not None:
            return
        shutil.rmtree(self.directory, ignore_errors=True)


def _removal(directory: Path) -> "Callable[[], None]":
    def remove() -> None:
        shutil.rmtree(directory, ignore_errors=True)

    return remove


def load_spilled_view(
    manifest_path: "str | os.PathLike[str]", validate: bool = False
) -> ComparisonView:
    """Re-open a finished spill run from its manifest (memory-mapped).

    With ``validate=True`` every shard is checked against the manifest —
    file present, ``(2, pairs)`` shape, CRC match where recorded — raising
    :class:`~repro.core.faults.SpillCorrupted` on the first mismatch.

    The returned view never deletes the artifacts on garbage collection;
    call :meth:`ComparisonView.release` to remove the run directory.
    """
    path = Path(manifest_path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported spill manifest version {manifest.get('version')!r}"
        )
    if validate:
        from repro.core.faults import SpillCorrupted

        for entry in manifest["shards"]:
            shard_path = path.parent / entry["file"]
            problem: "str | None" = None
            if not shard_path.is_file():
                problem = "missing"
            else:
                try:
                    stacked = np.load(shard_path, mmap_mode="r")
                except Exception:
                    problem = "unreadable"
                else:
                    if stacked.ndim != 2 or stacked.shape[0] != 2:
                        problem = f"bad shape {stacked.shape}"
                    elif stacked.shape[1] != int(entry["pairs"]):
                        problem = (
                            f"{stacked.shape[1]} pairs on disk, manifest "
                            f"says {entry['pairs']}"
                        )
                    elif entry.get("crc") is not None and pair_checksum(
                        stacked[0], stacked[1]
                    ) != int(entry["crc"]):
                        problem = "checksum mismatch"
            if problem is not None:
                raise SpillCorrupted(
                    f"spill shard {entry['file']} failed validation: {problem}"
                )
    return ComparisonView(
        _SpillSource(path.parent, list(manifest["shards"])),
        int(manifest["num_entities"]),
        spill_manifest=path,
        cleanup=_removal(path.parent),
        auto_release=False,
    )


def read_run_checkpoint(run_dir: "str | os.PathLike[str]") -> dict:
    """Validated contents of an interrupted run's write-ahead checkpoint.

    Raises :class:`ValueError` when the directory is missing, the run
    already finished (manifest present), no checkpoint exists, or the
    checkpoint version is unsupported — the same preconditions
    :meth:`SpillSink.resume` enforces.
    """
    return SpillSink._load_checkpoint(Path(run_dir))


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0; permission errors mean alive).

    Decides whether a crashed-run sweep may reclaim an artifact tagged with
    its owner's pid: here for spill runs, and in
    :func:`repro.blockprocessing.delta_index.sweep_stale_epochs`.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        return True
    return True


def sweep_stale_runs(
    spill_dir: "str | os.PathLike[str]", dry_run: bool = False
) -> "list[Path]":
    """Remove orphaned ``run-*`` directories under a spill directory.

    A run directory is orphaned when its owning process (the pid embedded
    in ``run-{pid}-{hex}``) is gone *and* no manifest was written — i.e.
    the owner crashed before finishing. Finished runs (manifest present)
    and runs whose owner is still alive are left alone: the former are
    data, the latter are in flight. Directories with a checkpoint are still
    swept — pass them to :meth:`SpillSink.resume` first if their work is
    worth salvaging. Returns the directories swept (or, with ``dry_run``,
    those that would be).
    """
    parent = Path(spill_dir)
    swept: list[Path] = []
    if not parent.is_dir():
        return swept
    for run_dir in sorted(parent.glob("run-*")):
        if not run_dir.is_dir():
            continue
        if (run_dir / MANIFEST_NAME).is_file():
            continue
        pieces = run_dir.name.split("-")
        try:
            pid = int(pieces[1])
        except (IndexError, ValueError):
            continue
        if pid_alive(pid):
            continue
        swept.append(run_dir)
        if not dry_run:
            shutil.rmtree(run_dir, ignore_errors=True)
    return swept


# -- bounded generator sink ---------------------------------------------------


class SinkClosed(RuntimeError):
    """Raised into the producer when the consumer abandoned the stream."""


class BoundedGeneratorSink(ComparisonSink):
    """Hand retained batches straight to a consumer, with back-pressure.

    The producer (a pruning run, typically on a worker thread — see
    :func:`stream_pruned`) appends batches; :meth:`batches` yields them to
    the consumer as they arrive. At most ``max_pending`` batches are ever
    buffered: a faster producer blocks until the consumer catches up, so the
    restructured comparisons are *pipelined* into matching instead of being
    materialised anywhere.

    ``finalize`` seals the stream and returns a view over nothing but the
    running totals — the pairs have already flowed to the consumer. If the
    consumer closes the generator early, the next ``append`` raises
    :class:`SinkClosed` to stop the producer.
    """

    _DONE = object()

    def __init__(self, max_pending: int = 8) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_pending)
        self._closed = threading.Event()
        self._sealed = False
        self.pairs_seen = 0

    def append(self, sources, targets) -> None:
        if self._sealed:
            raise RuntimeError("sink already finalized or aborted")
        sources, targets = _as_pair_arrays(sources, targets)
        if not sources.size:
            return
        self.pairs_seen += int(sources.size)
        while True:
            if self._closed.is_set():
                raise SinkClosed("consumer closed the comparison stream")
            try:
                self._queue.put((sources, targets), timeout=0.1)
                return
            except queue.Full:
                continue

    def batches(self) -> Iterator[Batch]:
        """Consumer side: yield batches until the producer finalises.

        The wait polls rather than blocking indefinitely: a producer that
        *aborts* against a full queue cannot enqueue its end-of-stream
        marker, so an uncancellable ``get()`` here would deadlock the
        consumer forever (the pre-fix behaviour). Draining continues until
        the queue is empty *and* the stream has been sealed.
        """
        try:
            while True:
                try:
                    item = self._queue.get(timeout=0.1)
                except queue.Empty:
                    if self._sealed:
                        return  # aborted producer; no marker is coming
                    continue
                if item is self._DONE:
                    return
                yield item  # type: ignore[misc]
        finally:
            self._closed.set()

    def finalize(self, num_entities: int) -> ComparisonView:
        self._sealed = True
        while True:
            if self._closed.is_set():
                # Consumer is gone; it will never drain the queue.
                try:
                    self._queue.put_nowait(self._DONE)
                except queue.Full:
                    pass
                break
            try:
                self._queue.put(self._DONE, timeout=0.1)
                break
            except queue.Full:
                continue
        counted = _ArraySource([])
        counted.num_pairs = self.pairs_seen
        return ComparisonView(counted, num_entities)

    def abort(self) -> None:
        self._sealed = True
        self._closed.set()
        # Unblock a consumer waiting on the queue.
        try:
            self._queue.put_nowait(self._DONE)
        except queue.Full:
            pass


def stream_pruned(
    produce: "Callable[[ComparisonSink], object]",
    max_pending: int = 8,
) -> Iterator[Batch]:
    """Run ``produce(sink)`` on a thread; yield its batches as they arrive.

    ``produce`` is any callable that pushes retained comparisons into the
    sink it is given and finalises it — ``lambda sink:
    algorithm.prune(weighting, sink=sink)`` being the canonical shape. The
    generator re-raises any producer exception once the stream drains, and
    closing it early stops the producer at its next append.
    """
    sink = BoundedGeneratorSink(max_pending=max_pending)
    failure: list[BaseException] = []

    def runner() -> None:
        try:
            produce(sink)
        except SinkClosed:
            pass
        except BaseException as error:  # re-raised on the consumer side
            failure.append(error)
            sink.abort()
        finally:
            if not sink._sealed:  # produce() that never finalised
                sink.finalize(0)

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    try:
        yield from sink.batches()
    finally:
        thread.join()
    if failure:
        raise failure[0]


__all__ = [
    "CHECKPOINT_NAME",
    "CHECKPOINT_VERSION",
    "DEFAULT_SHARD_PAIRS",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "BoundedGeneratorSink",
    "ComparisonSink",
    "ComparisonView",
    "InMemorySink",
    "SinkClosed",
    "SpillSink",
    "load_spilled_view",
    "pair_checksum",
    "pid_alive",
    "read_run_checkpoint",
    "stream_pruned",
    "sweep_stale_runs",
]
