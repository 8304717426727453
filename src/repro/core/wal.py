"""Crash-safe durability for the streaming resolver: a write-ahead log.

The ``repro serve`` daemon keeps every upsert in process memory; this
module makes acknowledged writes survive ``kill -9``. It provides the
generic machinery — record framing, segment files, fsync policies, the
torn-tail-tolerant reader, and sweep helpers — while the resolver-specific
logic (what a snapshot contains, how records replay) lives on
:meth:`repro.incremental.IncrementalMetaBlocking.recover`.

Record format
-------------
A WAL record is one committed upsert batch, framed as::

    <u32 payload length> <u32 CRC-32 of payload> <payload>

with a little-endian 8-byte header and a JSON payload
``{"seq": int, "profiles": [wire profiles], "sources": [int]}``. Sequence
numbers are assigned monotonically from 1 and never reused. Records are
appended to segment files ``wal-000001.log``, ``wal-000002.log``, … which
rotate at :data:`DEFAULT_SEGMENT_BYTES`; compaction snapshots record the
highest sequence number they cover, letting fully-covered sealed segments
be retired (deleted).

Group commit and the acknowledgement contract
---------------------------------------------
The daemon coalesces queued upserts into one ``add_batch`` call; the
resolver appends exactly one WAL record per applied batch *before the
batch's futures are resolved*, so an upsert is acknowledged only after its
record is durable under the configured :data:`FSYNC_POLICIES` member:

* ``"always"`` — fsync the segment *and* its directory entry per record;
* ``"batch"``  — fsync the segment per record (the group-commit default:
  one fsync covers every upsert coalesced into the batch), deferring the
  directory fsync to rotation;
* ``"off"``    — no fsync; the OS page cache still survives process death
  (``kill -9``), only a host crash can lose tail records.

Any append or fsync failure *poisons* the log (:class:`WalBroken`): no
later batch can commit, so the on-disk prefix always matches a prefix of
the applied in-memory sequence and replay can never diverge.

Torn tails
----------
A crash mid-write leaves a truncated or CRC-broken final frame. The
reader stops at the first damaged frame and reports it; recovery replays
only intact records, never a partial batch, and resumes appending into a
*new* segment whose first sequence number continues the intact chain.
Replay follows the chain across a torn segment boundary: segments holding
no intact record (a recovery that crashed before completing its first
append) are skipped, and the chain continues at the first later segment
that resumes the expected sequence. A torn tail only ever *truncates* the
chain — a sequence gap or duplicate is a different animal entirely
(acknowledged records missing or re-issued, e.g. segments retired against
a snapshot that is no longer readable) and recovery refuses to proceed
with a :class:`WalError` rather than silently serving partial state.
"""

from __future__ import annotations

import importlib
import json
import os
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable

from repro.core.faults import InjectedWalTear, fire_wal_fault
from repro.datamodel.profiles import Attribute, EntityProfile
from repro.utils.timer import percentile

#: Supported fsync policies, laxest-to-strictest cost order.
FSYNC_POLICIES = ("always", "batch", "off")

#: Rotation threshold for segment files.
DEFAULT_SEGMENT_BYTES = 4 << 20

#: Subdirectory of a WAL dir holding compaction snapshots (epoch dirs).
SNAPSHOT_SUBDIR = "snapshots"

#: Resolver-configuration manifest kept next to the segments.
RESOLVER_MANIFEST = "resolver.json"

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

_HEADER = struct.Struct("<II")
_MANIFEST_VERSION = 1
_LATENCY_WINDOW = 4096


class WalError(RuntimeError):
    """A write-ahead log append could not be made durable."""


class WalBroken(WalError):
    """The log is poisoned: an earlier failure forbids further commits."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record: a committed upsert batch."""

    seq: int
    profiles: tuple[dict, ...]
    sources: tuple[int, ...]


@dataclass
class RecoveryReport:
    """What :func:`recover_resolver` found and replayed."""

    wal_dir: str
    snapshot_epoch: "int | None" = None
    snapshot_profiles: int = 0
    records_replayed: int = 0
    upserts_replayed: int = 0
    last_seq: int = 0
    torn_tail: "str | None" = None
    warnings: tuple = ()
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "wal_dir": self.wal_dir,
            "snapshot_epoch": self.snapshot_epoch,
            "snapshot_profiles": self.snapshot_profiles,
            "records_replayed": self.records_replayed,
            "upserts_replayed": self.upserts_replayed,
            "last_seq": self.last_seq,
            "torn_tail": self.torn_tail,
            "warnings": list(self.warnings),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


# -- wire encoding of profiles ------------------------------------------------


def encode_profile(profile: EntityProfile) -> dict:
    """Lossless JSON encoding of a profile (same shape as the serve wire)."""
    return {
        "identifier": profile.identifier,
        "attributes": [
            [attribute.name, attribute.value]
            for attribute in profile.attributes
        ],
    }


def decode_profile(data: dict) -> EntityProfile:
    """Inverse of :func:`encode_profile`."""
    return EntityProfile(
        identifier=data["identifier"],
        attributes=tuple(
            Attribute(name=name, value=value)
            for name, value in data.get("attributes", ())
        ),
    )


# -- segment naming and reading -----------------------------------------------


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def segment_index(path: "str | os.PathLike[str]") -> int:
    """The ordinal encoded in a ``wal-NNNNNN.log`` segment file name."""
    name = Path(path).name
    return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


def wal_segments(directory: "str | os.PathLike[str]") -> "list[Path]":
    """The directory's segment files in commit order."""
    root = Path(directory)
    if not root.is_dir():
        return []
    segments = [
        path
        for path in root.iterdir()
        if path.name.startswith(SEGMENT_PREFIX)
        and path.name.endswith(SEGMENT_SUFFIX)
        and path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)].isdigit()
    ]
    return sorted(segments, key=segment_index)


def read_segment(path: "str | os.PathLike[str]") -> "tuple[list[WalRecord], str | None]":
    """Decode a segment, stopping at the first damaged frame.

    Returns ``(records, tear)`` where ``tear`` describes the damage
    (``None`` for a clean segment). Damage never raises: a torn tail is
    the expected debris of a crash mid-write.
    """
    data = Path(path).read_bytes()
    records: "list[WalRecord]" = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return records, "truncated record header"
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length == 0 or end > len(data):
            return records, "truncated record payload"
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            return records, "CRC-32 mismatch"
        try:
            decoded = json.loads(payload)
            record = WalRecord(
                seq=int(decoded["seq"]),
                profiles=tuple(decoded["profiles"]),
                sources=tuple(int(s) for s in decoded["sources"]),
            )
        except (KeyError, TypeError, ValueError):
            return records, "undecodable record payload"
        records.append(record)
        offset = end
    return records, None


# -- the writer ---------------------------------------------------------------


class WriteAheadLog:
    """Append-only, CRC-framed log of upsert batches with group commit.

    One :meth:`append` call per committed batch; the record is durable
    (per ``fsync_policy``) when the call returns. Any failure poisons the
    writer — see the module docstring for why that is load-bearing.
    """

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync_policy: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        next_seq: int = 1,
        segment_index: int = 1,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync_policy {fsync_policy!r}; "
                f"known: {FSYNC_POLICIES}"
            )
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be positive")
        if next_seq < 1 or segment_index < 1:
            raise ValueError("next_seq and segment_index start at 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync_policy
        self.segment_bytes = segment_bytes
        self._next_seq = next_seq
        self._segment_index = segment_index
        self._handle: "IO[bytes] | None" = None
        self._broken: "str | None" = None
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self._append_seconds: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)
        self._fsync_seconds: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)

    # -- state ---------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently committed record."""
        return self._next_seq - 1

    @property
    def broken(self) -> "str | None":
        """Why the log is poisoned, or ``None`` while healthy."""
        return self._broken

    @property
    def segment_path(self) -> Path:
        """The segment the next record will land in."""
        return self.directory / _segment_name(self._segment_index)

    def mark_broken(self, reason: str) -> None:
        """Poison the log: every later :meth:`append` raises WalBroken.

        Called internally on append/fsync failures, and by the resolver
        when its in-memory state advanced past the durable log (so a
        divergent replay can never be committed to).
        """
        if self._broken is None:
            self._broken = reason

    # -- appending -----------------------------------------------------------

    def append(
        self, profiles: "Iterable[dict]", sources: "Iterable[int]"
    ) -> int:
        """Commit one batch; returns its sequence number once durable."""
        if self._broken is not None:
            raise WalBroken(
                f"write-ahead log is poisoned ({self._broken}); "
                "restart and recover to resume"
            )
        seq = self._next_seq
        payload = json.dumps(
            {
                "seq": seq,
                "profiles": list(profiles),
                "sources": [int(source) for source in sources],
            },
            separators=(",", ":"),
        ).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        started = time.perf_counter()
        try:
            handle = self._ensure_segment(rotate_for=len(frame))
            try:
                fire_wal_fault("append", seq)
            except InjectedWalTear as exc:
                # Leave a genuinely torn tail behind, then fail the commit.
                handle.write(frame[: max(1, len(frame) // 2)])
                handle.flush()
                self.mark_broken(str(exc))
                raise WalError(str(exc)) from exc
            handle.write(frame)
            handle.flush()
            if self.fsync_policy != "off":
                sync_started = time.perf_counter()
                fire_wal_fault("fsync", seq)
                os.fsync(handle.fileno())
                if self.fsync_policy == "always":
                    self._fsync_directory()
                self._fsync_seconds.append(time.perf_counter() - sync_started)
                self.fsyncs += 1
        except WalError:
            raise
        except OSError as exc:
            self.mark_broken(f"append of seq {seq} failed: {exc}")
            raise WalError(
                f"write-ahead log append failed at seq {seq}: {exc}"
            ) from exc
        self._next_seq += 1
        self.appends += 1
        self.bytes_written += len(frame)
        self._append_seconds.append(time.perf_counter() - started)
        return seq

    def _ensure_segment(self, rotate_for: int = 0) -> "IO[bytes]":
        handle = self._handle
        if handle is not None and handle.tell() + rotate_for > self.segment_bytes and handle.tell() > 0:
            handle.close()
            self._handle = handle = None
            self._segment_index += 1
        if handle is None:
            handle = open(self.segment_path, "ab")
            self._handle = handle
            if self.fsync_policy == "always":
                # Make the new directory entry itself durable.
                self._fsync_directory()
        return handle

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- retirement ----------------------------------------------------------

    def retire_through(self, seq: int) -> "list[Path]":
        """Delete sealed segments whose intact records are all ``<= seq``.

        Called after a compaction snapshot covering ``seq`` is durable.
        The active segment is never retired. Returns the removed paths.
        """
        removed: "list[Path]" = []
        for path in wal_segments(self.directory):
            if segment_index(path) >= self._segment_index:
                continue
            records, _tear = read_segment(path)
            last = records[-1].seq if records else 0
            # A torn record was never acknowledged, so a segment whose
            # intact prefix is covered can go even if its tail is damaged.
            if last <= seq:
                path.unlink()
                removed.append(path)
        if removed and self.fsync_policy == "always":
            self._fsync_directory()
        return removed

    # -- reporting and teardown ----------------------------------------------

    def stats(self) -> dict:
        """Counters and latency percentiles for ``health``/``stats``."""
        return {
            "policy": self.fsync_policy,
            "last_seq": self.last_seq,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes": self.bytes_written,
            "segments": len(wal_segments(self.directory)),
            "broken": self._broken,
            "append_ms": _latency_summary(self._append_seconds),
            "fsync_ms": _latency_summary(self._fsync_seconds),
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _latency_summary(samples: "deque[float]") -> dict:
    if not samples:
        return {"p50": 0.0, "p99": 0.0}
    return {
        "p50": round(percentile(samples, 50) * 1000, 3),
        "p99": round(percentile(samples, 99) * 1000, 3),
    }


# -- resolver manifest --------------------------------------------------------


def read_resolver_manifest(
    wal_dir: "str | os.PathLike[str]",
) -> "dict | None":
    """The resolver-configuration manifest, or ``None`` when absent."""
    path = Path(wal_dir) / RESOLVER_MANIFEST
    if not path.is_file():
        return None
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("version") != _MANIFEST_VERSION:
        raise WalError(
            f"unsupported resolver manifest version in {path}: "
            f"{manifest.get('version')!r}"
        )
    return manifest


def write_resolver_manifest(
    wal_dir: "str | os.PathLike[str]", config: dict
) -> Path:
    """Atomically persist the resolver configuration next to the log."""
    root = Path(wal_dir)
    root.mkdir(parents=True, exist_ok=True)
    payload = dict(config)
    payload["version"] = _MANIFEST_VERSION
    final = root / RESOLVER_MANIFEST
    tmp = root / f"{RESOLVER_MANIFEST}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    os.replace(tmp, final)
    return final


# -- recovery and sweeping ----------------------------------------------------


def recover_resolver(
    wal_dir: "str | os.PathLike[str]", **kwargs: Any
) -> "tuple[Any, RecoveryReport]":
    """Rebuild a resolver from ``wal_dir``; see the resolver classmethod.

    Thin delegation to
    :meth:`repro.incremental.IncrementalMetaBlocking.recover` (imported
    lazily — ``repro.core`` stays upstream of ``repro.incremental``).
    """
    module = importlib.import_module("repro.incremental.resolver")
    return module.IncrementalMetaBlocking.recover(wal_dir, **kwargs)


def latest_snapshot_seq(
    wal_dir: "str | os.PathLike[str]",
) -> "int | None":
    """Highest WAL seq covered by an intact snapshot, or ``None``."""
    delta_index = importlib.import_module(
        "repro.blockprocessing.delta_index"
    )
    snapshots = Path(wal_dir) / SNAPSHOT_SUBDIR
    if not snapshots.is_dir():
        return None
    epochs = sorted(
        (
            path
            for path in snapshots.iterdir()
            if path.is_dir() and path.name.startswith(delta_index.EPOCH_PREFIX)
        ),
        reverse=True,
    )
    for epoch_dir in epochs:
        try:
            state = delta_index.load_epoch_state(epoch_dir)
        except (OSError, ValueError):
            continue
        if state is None:
            continue
        wal_state = state.get("wal") or {}
        seq = wal_state.get("seq")
        if seq is not None:
            return int(seq)
    return None


def sweep_stale_wal(
    wal_dir: "str | os.PathLike[str]", dry_run: bool = False
) -> "list[Path]":
    """Remove WAL debris: covered sealed segments + half-written snapshots.

    A segment is removed when it is not the newest one and every intact
    record in it is covered by the latest intact snapshot's sequence
    number; half-written snapshot temp dirs are delegated to
    :func:`repro.blockprocessing.delta_index.sweep_stale_epochs`. With
    ``dry_run`` nothing is deleted; the would-be victims are returned.
    """
    delta_index = importlib.import_module(
        "repro.blockprocessing.delta_index"
    )
    root = Path(wal_dir)
    if not root.is_dir():
        return []
    victims: "list[Path]" = list(
        delta_index.sweep_stale_epochs(root / SNAPSHOT_SUBDIR, dry_run=dry_run)
    )
    covered = latest_snapshot_seq(root)
    if covered is not None:
        segments = wal_segments(root)
        for path in segments[:-1]:  # the newest segment is never swept
            records, _tear = read_segment(path)
            last = records[-1].seq if records else 0
            if last <= covered:
                if not dry_run:
                    path.unlink()
                victims.append(path)
    return victims


__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "RESOLVER_MANIFEST",
    "SNAPSHOT_SUBDIR",
    "RecoveryReport",
    "WalBroken",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "decode_profile",
    "encode_profile",
    "latest_snapshot_seq",
    "read_resolver_manifest",
    "read_segment",
    "recover_resolver",
    "segment_index",
    "sweep_stale_wal",
    "wal_segments",
    "write_resolver_manifest",
]
