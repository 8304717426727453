"""Structured failure taxonomy + deterministic fault injection.

The fault-tolerance layer of the parallel executor needs two things this
module provides:

* a small exception taxonomy distinguishing *retryable* infrastructure
  failures (a chunk exceeded its timeout, a spill shard failed
  validation) from deterministic task errors, plus the terminal
  :class:`RetriesExhausted`;
* a deterministic fault-injection harness so the retry/degrade/resume
  machinery can be tested end to end: a :class:`FaultPlan` describes
  *when* to delay a chunk past its timeout, fail it, or hard-exit the
  owner mid-adoption, and the executor/sink code calls the ``fire_*``
  hooks at the matching sites.

Fault plans are mirrored into the :data:`FAULTS_ENV` environment variable,
so a child process started with that environment (the crash-and-resume
tests run the interrupted half in one) inherits the plan without calling
:func:`install_faults` itself. Firing is keyed on the *attempt number* of
a chunk: a fault with ``attempts=1`` fires on the first attempt only, so
the retry is deterministic — no shared mutable state is needed.

This module is an import leaf (stdlib only) so both
:mod:`repro.datamodel.sinks` and :mod:`repro.core.parallel` can depend on
it without cycles.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

#: Environment variable carrying the JSON-encoded active fault plan.
FAULTS_ENV = "REPRO_FAULTS"


# -- exception taxonomy -------------------------------------------------------


class FaultToleranceError(RuntimeError):
    """Base of the executor's structured failure taxonomy."""


class ChunkTimeout(FaultToleranceError):
    """A chunk exceeded the configured per-chunk timeout.

    Retryable: only the timed-out chunk's attempt counter is charged.
    """


class SpillCorrupted(FaultToleranceError):
    """A spill shard or checkpoint failed length/checksum validation.

    Raised when re-opening a run (:func:`repro.datamodel.sinks
    .load_spilled_view` with ``validate=True``) or when a resume finds a
    checkpoint whose signature does not match the run being resumed.
    Corrupted shards found *during* resume are silently re-executed
    instead.
    """


class RetriesExhausted(FaultToleranceError):
    """A chunk kept failing after every retry and backend degradation."""


#: Failures the supervisor retries; anything else propagates immediately.
RETRYABLE_FAILURES = (ChunkTimeout,)


class InjectedFault(RuntimeError):
    """A deterministic (non-retryable) error raised by an ``error`` fault."""


class InjectedWalTear(InjectedFault):
    """Raised mid-append by a ``torn_wal_tail`` fault.

    The WAL writer catches it *after* flushing half of the framed record,
    leaving a genuinely torn tail on disk for recovery to skip.
    """


# -- fault plans --------------------------------------------------------------

#: Sites a fault can attach to.
FAULT_SITES = ("chunk", "adopt", "wal")

#: Operations a fault can perform at its site.
FAULT_OPS = ("delay", "error", "exit", "torn_wal_tail", "fsync_error")


@dataclass(frozen=True)
class Fault:
    """One injected failure.

    Parameters
    ----------
    site:
        ``"chunk"`` fires inside chunk execution (on a pool thread, or in
        the owner on the in-process backend); ``"adopt"`` fires owner-side
        after a chunk shard has been adopted and checkpointed.
    op:
        ``"delay"`` sleeps ``seconds`` inside the chunk on a pool thread
        (simulated as a raised :class:`ChunkTimeout` in-process) and lets
        later matching faults fire on the stalled chunk, ``"error"``
        raises a deterministic :class:`InjectedFault`, and ``"exit"``
        (adopt site) hard-exits the owner process mid-run.
        ``"torn_wal_tail"`` (wal site) makes the write-ahead log flush
        half of the framed record then fail the append, and
        ``"fsync_error"`` (wal site) raises an :class:`OSError` from the
        fsync path — both poison the log so no later batch can be
        acknowledged.
    chunk:
        Chunk index the fault applies to; ``None`` matches every chunk.
        At the ``wal`` site this is the *record sequence number* instead,
        which is equally deterministic across processes.
    task:
        Substring of the chunk task name, ``"<acronym>:<phase>"`` in lower
        case (e.g. ``"wep:retain"``; ``"wnp"`` matches every WNP family
        task); ``None`` matches every task.
    attempts:
        Number of attempts the fault keeps firing for: it fires while
        ``attempt < attempts``, so the default 1 fires on the first attempt
        only and the retry succeeds deterministically.
    seconds:
        Sleep length for ``delay`` faults.
    after:
        Adopt-site trigger: fire when exactly this many shards (1-based)
        have been adopted.
    """

    site: str = "chunk"
    op: str = "delay"
    chunk: "int | None" = None
    task: "str | None" = None
    attempts: int = 1
    seconds: float = 0.0
    after: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {self.op!r}; known: {FAULT_OPS}")

    def matches_chunk(self, task: str, chunk: int, attempt: int) -> bool:
        if self.site != "chunk":
            return False
        if self.task is not None and self.task not in task:
            return False
        if self.chunk is not None and self.chunk != chunk:
            return False
        return attempt < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`Fault`\\ s, JSON round-trippable."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps({"faults": [asdict(fault) for fault in self.faults]})

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        decoded = json.loads(payload)
        return cls(tuple(Fault(**entry) for entry in decoded.get("faults", ())))


_ACTIVE: "FaultPlan | None" = None
_ENV_CACHE: "tuple[str, FaultPlan] | None" = None


def install_faults(plan: "FaultPlan | None") -> None:
    """Activate a fault plan for this process *and its future children*.

    The plan is kept in a module global (fast path) and mirrored into the
    :data:`FAULTS_ENV` environment variable so child processes pick it up
    too. Passing ``None`` clears both.
    """
    global _ACTIVE
    _ACTIVE = plan
    if plan is None or not plan.faults:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = plan.to_json()


def clear_faults() -> None:
    """Deactivate fault injection (idempotent)."""
    install_faults(None)


def active_plan() -> "FaultPlan | None":
    """The plan in effect for this process, if any.

    A child process that never ran :func:`install_faults` inherits the plan
    through the environment; the parse is cached per distinct value.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


class injected_faults:
    """Context manager installing a plan and guaranteeing its removal."""

    def __init__(self, *faults: Fault) -> None:
        self._plan = FaultPlan(tuple(faults))

    def __enter__(self) -> FaultPlan:
        install_faults(self._plan)
        return self._plan

    def __exit__(self, *exc_info) -> None:
        clear_faults()


# -- firing sites -------------------------------------------------------------


def fire_chunk_fault(
    task: str, chunk: int, attempt: int, in_worker: bool
) -> None:
    """Hook called at the top of every chunk execution.

    ``in_worker`` tells the harness whether a ``delay`` can really stall
    the chunk (a pool thread, which the owner times out) or must be
    simulated by raising :class:`ChunkTimeout` (the in-process backend,
    where the owner itself runs the chunk). A no-op without an active
    plan.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.faults:
        if not fault.matches_chunk(task, chunk, attempt):
            continue
        if fault.op == "delay":
            if in_worker:
                time.sleep(fault.seconds)
                continue  # a later fault may fail the stalled chunk
            raise ChunkTimeout(
                f"injected delay on chunk {chunk} of {task!r} "
                f"(attempt {attempt})"
            )
        if fault.op == "error":
            raise InjectedFault(
                f"injected error on chunk {chunk} of {task!r} "
                f"(attempt {attempt})"
            )


def fire_adoption_fault(ordinal: int) -> None:
    """Hook called owner-side after the ``ordinal``-th shard adoption.

    Runs *after* the adoption has been recorded in the spill checkpoint, so
    an ``exit`` fault models a hard crash (SIGKILL/OOM) with ``ordinal``
    chunks durably completed.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.faults:
        if fault.site != "adopt" or fault.after != ordinal:
            continue
        if fault.op == "exit":
            os._exit(70)
        if fault.op == "error":
            raise InjectedFault(f"injected error after adoption {ordinal}")


def fire_wal_fault(stage: str, seq: int) -> None:
    """Hook called by the WAL writer while committing record ``seq``.

    ``stage`` is ``"append"`` (before the frame is written) or ``"fsync"``
    (before the data fsync). ``torn_wal_tail`` faults fire at the append
    stage by raising :class:`InjectedWalTear`; ``fsync_error`` faults fire
    at the fsync stage by raising :class:`OSError`, which the writer
    handles exactly like a real fsync failure. Matching reuses the
    ``task`` (substring of the stage) and ``chunk`` (record seq) fields.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.faults:
        if fault.site != "wal":
            continue
        if fault.task is not None and fault.task not in stage:
            continue
        if fault.chunk is not None and fault.chunk != seq:
            continue
        if fault.op == "torn_wal_tail" and stage == "append":
            raise InjectedWalTear(f"injected torn tail at wal seq {seq}")
        if fault.op == "fsync_error" and stage == "fsync":
            raise OSError(f"injected fsync error at wal seq {seq}")
        if fault.op == "error":
            raise InjectedFault(f"injected error at wal seq {seq} ({stage})")


# -- corruption helpers (used by the resume tests) ----------------------------


def truncate_shard(path: "str | os.PathLike[str]", keep: "int | None" = None) -> None:
    """Truncate a spill shard in place, simulating a torn write.

    ``keep`` is the byte length to retain (default: half the file).
    """
    size = os.path.getsize(path)
    os.truncate(path, size // 2 if keep is None else keep)


__all__ = [
    "FAULTS_ENV",
    "FAULT_OPS",
    "FAULT_SITES",
    "RETRYABLE_FAILURES",
    "ChunkTimeout",
    "Fault",
    "FaultPlan",
    "FaultToleranceError",
    "InjectedFault",
    "InjectedWalTear",
    "RetriesExhausted",
    "SpillCorrupted",
    "active_plan",
    "clear_faults",
    "fire_adoption_fault",
    "fire_chunk_fault",
    "fire_wal_fault",
    "injected_faults",
    "install_faults",
    "truncate_shard",
]
