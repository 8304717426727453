"""The ``repro serve`` daemon: a long-lived async front-end for streaming ER.

One :class:`ResolverServer` owns one
:class:`~repro.incremental.IncrementalMetaBlocking` resolver and exposes it
over the newline-delimited JSON protocol of :mod:`repro.serve.protocol`,
on a TCP port or a Unix-domain socket (``asyncio.start_server`` /
``start_unix_server`` — stdlib only, no framework).

Threading model
---------------
The event loop never touches numpy. Connection handlers only parse frames
and enqueue ``(request, future)`` items on a bounded queue; a single
dispatcher task pops them in arrival order and runs every resolver call in
a one-thread ``ThreadPoolExecutor`` via ``loop.run_in_executor``. That one
worker thread serialises all resolver mutations (the resolver is not
thread-safe by itself), while the resolver's *own* ``ExecutionConfig`` can
still fan stale-node re-pruning and exports out over the threads backend —
the event loop stays responsive under sustained load because the GIL is
released inside the numpy kernels.

Coalescing
----------
Single ``upsert`` requests flow through the resolver's micro-batching
``submit()`` buffer (capacity = ``flush_size``): the dispatcher *parks*
each request's response future and resolves the whole convoy when the
buffer flushes — either because it filled up, or because ``flush_interval``
elapsed without new work (the dispatcher's queue wait doubles as the flush
timer, so an idle stream never strands a buffered upsert). Batch upserts
and every consistency-sensitive verb (``query``, ``candidates``,
``compact``, ``shutdown``) drain the convoy first, preserving exact
arrival-order semantics — the daemon's candidate output is bit-identical
to an in-process resolver fed the same upsert sequence.

Back-pressure
-------------
The request queue is bounded (``queue_limit``). When it is full the
handler answers ``overloaded`` immediately instead of buffering without
bound; clients retry after a backoff (the sync SDK does this
automatically). Oversized frames get ``frame-too-large`` and the
connection is closed; malformed JSON gets ``bad-frame`` and the
connection survives.

Fault injection
---------------
Every verb execution passes through
:func:`repro.core.faults.fire_chunk_fault` with task ``"serve:<verb>"``
and the request ordinal as the chunk index, so the existing deterministic
fault harness (``REPRO_FAULTS``) can delay or fail chosen requests — the
client SDK's retry/timeout tests are built on it.

Recovery
--------
A server constructed with ``recovery=`` (a callable, typically a closure
over :meth:`IncrementalMetaBlocking.recover`) starts accepting
connections immediately but answers every resolver verb with the
retryable ``recovering`` error until the callable finishes on the worker
thread. The ``health`` verb is answered on the event loop — never queued
behind resolver work — and reports ``recovering`` / ``ready`` /
``failed`` plus the recovery report and live WAL/fsync latency stats, so
orchestration probes stay cheap even under sustained ingest.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from repro.core.faults import InjectedFault, fire_chunk_fault
from repro.incremental import IncrementalMetaBlocking
from repro.serve.protocol import (
    ERR_BAD_FRAME,
    ERR_FRAME_TOO_LARGE,
    ERR_INTERNAL,
    ERR_INVALID_REQUEST,
    ERR_OVERLOADED,
    ERR_RECOVERING,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_VERB,
    MAX_FRAME_BYTES,
    VERBS,
    candidate_to_wire,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    profile_from_wire,
    wire_integer,
)

#: Default coalescing-buffer flush deadline (seconds of queue idleness).
DEFAULT_FLUSH_INTERVAL = 0.02

#: Default bound on queued-but-not-yet-dispatched requests.
DEFAULT_QUEUE_LIMIT = 256

#: Per-verb latency samples kept for the percentile stats (ring buffer).
LATENCY_WINDOW = 8192


def _percentile(samples: "list[float]", q: float) -> float:
    """The ``q``-th percentile of ``samples`` (nearest-rank, q in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class ResolverServer:
    """A long-lived daemon serving one incremental resolver.

    Parameters
    ----------
    resolver:
        The :class:`~repro.incremental.IncrementalMetaBlocking` instance to
        serve. The server takes ownership: all access must go through the
        protocol once :meth:`start` has run. Mutually exclusive with
        ``recovery`` — exactly one of the two must be given.
    recovery:
        Zero-argument callable producing the resolver to serve — either a
        bare resolver or an ``(resolver, RecoveryReport)`` tuple (the
        return shape of :meth:`IncrementalMetaBlocking.recover`). It runs
        on the worker thread as soon as the server starts; until it
        finishes, resolver verbs get the retryable ``recovering`` error
        and ``health`` reports ``status: "recovering"``. If it raises,
        the server stays up with ``status: "failed"`` (so the failure is
        observable over the wire) and resolver verbs get ``internal``.
    path:
        Unix-domain socket path; mutually exclusive with ``host``/``port``.
        A pre-existing socket file is unlinked (stale daemons leave them
        behind); the live one is removed again on close.
    host / port:
        TCP endpoint (``port=0`` picks a free port). Used when ``path`` is
        not given; defaults to loopback.
    flush_size:
        Coalescing capacity for single upserts — overrides the resolver's
        ``batch_size``. ``None`` keeps the resolver's setting (default 1 =
        no coalescing).
    flush_interval:
        Seconds of request-queue idleness after which a partially filled
        coalescing buffer is flushed anyway (latency ceiling for parked
        upserts).
    queue_limit:
        Bound on queued requests; beyond it clients get ``overloaded``.
    max_frame_bytes:
        Reject request frames larger than this many bytes.
    compact_on_shutdown:
        Run one final compaction during graceful shutdown (the resolver's
        ``compact_dir`` then receives a parting epoch snapshot).
    """

    def __init__(
        self,
        resolver: "IncrementalMetaBlocking | None" = None,
        *,
        recovery: "Callable[[], object] | None" = None,
        path: "str | os.PathLike[str] | None" = None,
        host: "str | None" = None,
        port: int = 0,
        flush_size: "int | None" = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        compact_on_shutdown: bool = False,
    ) -> None:
        if (resolver is None) == (recovery is None):
            raise ValueError("give exactly one of resolver or recovery")
        if path is not None and host is not None:
            raise ValueError("give either a unix socket path or a host, not both")
        if flush_size is not None:
            if flush_size < 1:
                raise ValueError(f"flush_size must be >= 1, got {flush_size}")
            if resolver is not None:
                resolver.batch_size = flush_size
        if flush_interval <= 0:
            raise ValueError(f"flush_interval must be > 0, got {flush_interval}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.resolver: "IncrementalMetaBlocking | None" = resolver
        self._recovery = recovery
        self._flush_size = flush_size  # applied post-recovery when deferred
        self._status = "ready" if resolver is not None else "recovering"
        self._recovery_report: "dict | None" = None
        self._recovery_error: "str | None" = None
        self.path = None if path is None else os.fspath(path)
        self.host = host if host is not None else ("127.0.0.1" if path is None else None)
        self.port = port
        self.flush_interval = flush_interval
        self.queue_limit = queue_limit
        self.max_frame_bytes = max_frame_bytes
        self.compact_on_shutdown = compact_on_shutdown

        self._server: "asyncio.AbstractServer | None" = None
        self._queue: "asyncio.Queue | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._pool: "ThreadPoolExecutor | None" = None
        self._finished: "asyncio.Event | None" = None
        self._stopping = False
        self._started_at = 0.0
        # Parked single-upsert convoy: (request id, response future,
        # assigned entity id, enqueue timestamp) per buffered profile,
        # in buffer order.
        self._parked: "list[tuple[object, asyncio.Future, int, float]]" = []
        self._ordinal = 0  # request counter, feeds the fault hook
        self._counts: dict[str, int] = {}
        self._errors = 0
        self._overloaded = 0
        self._latencies: dict[str, deque] = {}
        self._connections = 0
        # Live connection state, so aclose() can end handlers cleanly
        # (closing the transports EOFs their readline) instead of leaving
        # them to be cancelled mid-read at loop teardown.
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._handlers: "set[asyncio.Task]" = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> "str | tuple[str, int]":
        """Where the daemon listens: the socket path, or ``(host, port)``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        if self.path is not None:
            return self.path
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return (name[0], name[1])

    async def start(self) -> None:
        """Bind the socket and start accepting requests."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._finished = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)  # stale socket from a dead daemon
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.path, limit=self.max_frame_bytes
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.host, port=self.port,
                limit=self.max_frame_bytes,
            )
        self._started_at = time.monotonic()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def wait_closed(self) -> None:
        """Block until a graceful shutdown completes."""
        assert self._finished is not None
        await self._finished.wait()

    async def aclose(self) -> None:
        """Tear the daemon down (idempotent; used after :meth:`wait_closed`
        and by error paths)."""
        if self._dispatcher is not None and not self._dispatcher.done():
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Error-path teardown may leave parked futures unresolved; answer
        # them so no handler stays blocked awaiting a response.
        parked, self._parked = self._parked, []
        for request_id, future, _, _ in parked:
            if not future.done():
                future.set_result(
                    error_response(
                        request_id, ERR_SHUTTING_DOWN, "daemon is shutting down"
                    )
                )
        # EOF every live connection so its handler returns by itself —
        # a handler cancelled inside readline() would make asyncio log a
        # spurious CancelledError at loop teardown.
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.wait(self._handlers, timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.path is not None and os.path.exists(self.path):
            os.unlink(self.path)
        if self._finished is not None:
            self._finished.set()

    async def request_shutdown(self, compact: "bool | None" = None) -> dict:
        """Programmatic graceful shutdown (same path as the wire verb)."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request = {"id": None, "verb": "shutdown"}
        if compact is not None:
            request["compact"] = compact
        await self._queue.put((request, future, time.monotonic()))
        response = await future
        return response["result"]

    def run(self) -> dict:
        """Run the daemon until a ``shutdown`` request lands; final stats."""
        return asyncio.run(self._run())

    async def _run(self) -> dict:
        await self.start()
        try:
            await self.wait_closed()
        finally:
            await self.aclose()
        return self._stats_payload()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        error_response(
                            None,
                            ERR_FRAME_TOO_LARGE,
                            f"frame exceeds {self.max_frame_bytes} bytes",
                        ),
                    )
                    break  # stream cannot be re-framed past an overrun
                if not line:
                    break  # client closed its end
                if not line.strip():
                    continue
                response = await self._admit(line)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # hard disconnect: parked work still completes server-side
        finally:
            self._connections -= 1
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _admit(self, line: bytes) -> dict:
        """Validate one frame, enqueue it, await its response."""
        try:
            request = decode_frame(line)
        except ValueError as exc:
            self._errors += 1
            return error_response(None, ERR_BAD_FRAME, str(exc))
        request_id = request.get("id")
        verb = request.get("verb")
        if verb not in VERBS:
            self._errors += 1
            return error_response(
                request_id, ERR_UNKNOWN_VERB, f"unknown verb {verb!r}"
            )
        if verb == "health":
            # Answered on the event loop, never queued: health probes must
            # stay cheap during recovery and under resolver back-pressure.
            self._counts["health"] = self._counts.get("health", 0) + 1
            return ok_response(request_id, self._health_payload())
        if self._stopping:
            self._errors += 1
            return error_response(
                request_id, ERR_SHUTTING_DOWN, "daemon is shutting down"
            )
        if self._status != "ready" and verb != "shutdown":
            self._errors += 1
            if self._status == "recovering":
                return error_response(
                    request_id, ERR_RECOVERING,
                    "daemon is replaying its write-ahead log; retry later",
                )
            return error_response(
                request_id, ERR_INTERNAL,
                f"recovery failed: {self._recovery_error}",
            )
        assert self._queue is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, future, time.monotonic()))
        except asyncio.QueueFull:
            self._overloaded += 1
            return error_response(
                request_id,
                ERR_OVERLOADED,
                f"request queue is full ({self.queue_limit}); retry later",
            )
        return await future

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        writer.write(encode_frame(response))
        await writer.drain()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        if self._recovery is not None:
            await self._run_recovery()
        while True:
            if self._parked:
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), self.flush_interval
                    )
                except asyncio.TimeoutError:
                    # Queue idle with upserts parked: deadline flush.
                    await self._flush_parked()
                    continue
            else:
                item = await self._queue.get()
            request, future, enqueued = item
            if request.get("verb") == "shutdown":
                await self._do_shutdown(request, future, enqueued)
                return
            await self._do_verb(request, future, enqueued)

    async def _run_recovery(self) -> None:
        """Dispatcher prologue: materialise the resolver before serving.

        Runs the ``recovery`` callable on the worker thread (the event
        loop keeps answering ``health`` and issuing ``recovering`` errors
        meanwhile). A failure leaves the server up in ``failed`` status —
        observable over the wire — rather than tearing the process down.
        """
        assert self._recovery is not None
        try:
            outcome = await self._run_blocking(self._recovery)
        except Exception as exc:
            self._status = "failed"
            self._recovery_error = str(exc)
            return
        if isinstance(outcome, tuple):
            resolver, report = outcome
            self._recovery_report = (
                report.to_dict() if hasattr(report, "to_dict") else dict(report)
            )
        else:
            resolver = outcome
        self.resolver = resolver
        if self._flush_size is not None:
            resolver.batch_size = self._flush_size
        self._status = "ready"

    async def _run_blocking(self, fn):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn)

    def _resolve(
        self,
        future: asyncio.Future,
        response: dict,
        verb: str,
        enqueued: float,
    ) -> None:
        if not response.get("ok", False):
            self._errors += 1
        self._counts[verb] = self._counts.get(verb, 0) + 1
        self._latencies.setdefault(verb, deque(maxlen=LATENCY_WINDOW)).append(
            time.monotonic() - enqueued
        )
        if not future.done():  # guard against a cancelled waiter
            future.set_result(response)

    async def _flush_parked(self) -> None:
        """Commit the coalescing buffer; resolve the parked convoy."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        try:
            lists = await self._run_blocking(self.resolver.flush)
        except Exception as exc:  # resolver failure fails the whole convoy
            for request_id, future, _, enqueued in parked:
                self._resolve(
                    future,
                    error_response(request_id, ERR_INTERNAL, str(exc)),
                    "upsert",
                    enqueued,
                )
            return
        for (request_id, future, entity_id, enqueued), candidates in zip(
            parked, lists
        ):
            self._resolve(
                future,
                ok_response(
                    request_id,
                    {
                        "entity_id": entity_id,
                        "candidates": [candidate_to_wire(c) for c in candidates],
                    },
                ),
                "upsert",
                enqueued,
            )

    async def _do_verb(
        self, request: dict, future: asyncio.Future, enqueued: float
    ) -> None:
        verb = request["verb"]
        request_id = request.get("id")
        ordinal = self._ordinal
        self._ordinal += 1
        try:
            if verb == "upsert" and "profiles" not in request:
                await self._do_single_upsert(
                    request, future, enqueued, ordinal
                )
                return
            # Every other verb is a barrier: parked upserts commit first so
            # arrival-order semantics hold (stats/ping excepted — they are
            # read-only and must see `pending` as-is).
            if verb not in ("ping", "stats"):
                await self._flush_parked()
            work = self._work_for(verb, request, ordinal)
            result = await self._run_blocking(work)
            response = ok_response(request_id, result)
        except (ValueError, KeyError, TypeError) as exc:
            response = error_response(request_id, ERR_INVALID_REQUEST, str(exc))
        except InjectedFault as exc:
            response = error_response(request_id, ERR_INTERNAL, str(exc))
        except Exception as exc:
            response = error_response(request_id, ERR_INTERNAL, str(exc))
        self._resolve(future, response, verb, enqueued)

    async def _do_single_upsert(
        self,
        request: dict,
        future: asyncio.Future,
        enqueued: float,
        ordinal: int,
    ) -> None:
        request_id = request.get("id")
        resolver = self.resolver

        def work():
            fire_chunk_fault("serve:upsert", ordinal, 0, in_worker=True)
            profile = profile_from_wire(request.get("profile"))
            source = wire_integer(request.get("source", 0), "source")
            entity_id = len(resolver) + resolver.pending
            return entity_id, resolver.submit(profile, source=source)

        try:
            entity_id, flushed = await self._run_blocking(work)
        except (ValueError, KeyError, TypeError) as exc:
            self._resolve(
                future,
                error_response(request_id, ERR_INVALID_REQUEST, str(exc)),
                "upsert",
                enqueued,
            )
            return
        except Exception as exc:
            self._resolve(
                future,
                error_response(request_id, ERR_INTERNAL, str(exc)),
                "upsert",
                enqueued,
            )
            return
        self._parked.append((request_id, future, entity_id, enqueued))
        if flushed is not None:
            # submit() crossed flush_size and committed the whole convoy.
            parked, self._parked = self._parked, []
            for (parked_id, parked_future, eid, t0), candidates in zip(
                parked, flushed
            ):
                self._resolve(
                    parked_future,
                    ok_response(
                        parked_id,
                        {
                            "entity_id": eid,
                            "candidates": [
                                candidate_to_wire(c) for c in candidates
                            ],
                        },
                    ),
                    "upsert",
                    t0,
                )

    def _work_for(self, verb: str, request: dict, ordinal: int):
        """The executor-side body of every non-coalesced verb."""
        resolver = self.resolver

        def guarded(body):
            def run():
                fire_chunk_fault(f"serve:{verb}", ordinal, 0, in_worker=True)
                return body()

            return run

        if verb == "ping":
            return guarded(
                lambda: {"pong": True, "epoch": resolver.epoch}
            )
        if verb == "upsert":  # batch form
            profiles = request.get("profiles")
            if not isinstance(profiles, list):
                raise ValueError("batch upsert needs a 'profiles' list")
            sources = request.get("sources")
            if isinstance(sources, list):
                for source in sources:
                    wire_integer(source, "sources element")
            elif sources is not None:
                wire_integer(sources, "sources")

            def batch():
                decoded = [profile_from_wire(p) for p in profiles]
                entity_start = len(resolver)
                lists = resolver.add_batch(decoded, sources)
                return {
                    "entity_ids": list(
                        range(entity_start, entity_start + len(decoded))
                    ),
                    "candidates": [
                        [candidate_to_wire(c) for c in candidates]
                        for candidates in lists
                    ],
                }

            return guarded(batch)
        if verb == "query":
            if "entity_id" not in request:
                raise ValueError("query needs an 'entity_id'")
            entity_id = wire_integer(request["entity_id"], "entity_id")
            k = request.get("k")
            if k is not None:
                wire_integer(k, "k")

            def query():
                candidates = resolver.query(entity_id, k)
                return {
                    "entity_id": entity_id,
                    "neighbors": [candidate_to_wire(c) for c in candidates],
                }

            return guarded(query)
        if verb == "candidates":
            algorithm = request.get("algorithm", "CNP")

            def export():
                view = resolver.candidate_pairs(algorithm)
                pairs = [[int(left), int(right)] for left, right in view]
                return {
                    "algorithm": algorithm,
                    "count": len(pairs),
                    "pairs": pairs,
                }

            return guarded(export)
        if verb == "compact":

            def compact():
                resolver.compact()
                return {
                    "epoch": resolver.epoch,
                    "compactions": resolver.compactions,
                }

            return guarded(compact)
        if verb == "stats":
            return guarded(self._stats_payload)
        raise ValueError(f"unknown verb {verb!r}")  # unreachable: _admit gates

    async def _do_shutdown(
        self, request: dict, future: asyncio.Future, enqueued: float
    ) -> None:
        assert self._queue is not None
        self._stopping = True
        # Drain requests accepted before the shutdown was dispatched.
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            drained_request, drained_future, drained_enqueued = item
            if drained_request.get("verb") == "shutdown":
                self._resolve(
                    drained_future,
                    error_response(
                        drained_request.get("id"),
                        ERR_SHUTTING_DOWN,
                        "daemon is shutting down",
                    ),
                    "shutdown",
                    drained_enqueued,
                )
                continue
            await self._do_verb(drained_request, drained_future, drained_enqueued)
        flushed = len(self._parked)
        await self._flush_parked()
        resolver = self.resolver  # None when recovery never completed
        compact = bool(request.get("compact", self.compact_on_shutdown))
        compact = compact and resolver is not None
        if compact and resolver is not None:
            await self._run_blocking(resolver.compact)
        result = {
            "profiles": 0 if resolver is None else len(resolver),
            "epoch": 0 if resolver is None else resolver.epoch,
            "compactions": 0 if resolver is None else resolver.compactions,
            "flushed": flushed,
            "compacted": compact,
        }
        self._resolve(
            future,
            ok_response(request.get("id"), result),
            "shutdown",
            enqueued,
        )
        assert self._finished is not None
        self._finished.set()

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        """Current server + resolver statistics (the ``stats`` payload)."""
        return self._stats_payload()

    def _health_payload(self) -> dict:
        """The ``health`` response body (event-loop-side, no resolver calls
        that could block — attribute reads and WAL counters only)."""
        payload: dict = {
            "status": self._status,
            "uptime_seconds": round(
                max(time.monotonic() - self._started_at, 0.0), 3
            ),
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
        }
        if self._recovery_report is not None:
            payload["recovery"] = self._recovery_report
        if self._recovery_error is not None:
            payload["error"] = self._recovery_error
        resolver = self.resolver
        if self._status == "ready" and resolver is not None:
            payload["profiles"] = len(resolver)
            payload["epoch"] = resolver.epoch
            payload["pending"] = resolver.pending
            wal = getattr(resolver, "wal", None)
            if wal is not None:
                try:
                    payload["wal"] = wal.stats()
                except RuntimeError:
                    # Latency deques mutate under the worker thread; a probe
                    # that races a flush just omits the WAL block this time.
                    pass
        return payload

    def _stats_payload(self) -> dict:
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        total = sum(self._counts.values())
        latency_ms = {
            verb: {
                "count": len(samples),
                "p50": round(_percentile(list(samples), 50) * 1e3, 3),
                "p99": round(_percentile(list(samples), 99) * 1e3, 3),
            }
            for verb, samples in self._latencies.items()
            if samples
        }
        return {
            **({} if self.resolver is None else self.resolver.stats()),
            "status": self._status,
            "uptime_seconds": round(uptime, 3),
            "requests": dict(self._counts),
            "total_requests": total,
            "qps": round(total / uptime, 2),
            "errors": self._errors,
            "overloaded": self._overloaded,
            "connections": self._connections,
            "latency_ms": latency_ms,
            "coalescing": {
                "flush_size": (
                    (self.resolver.batch_size or 1)
                    if self.resolver is not None
                    else (self._flush_size or 1)
                ),
                "flush_interval": self.flush_interval,
            },
        }


class BackgroundServer:
    """Run a :class:`ResolverServer` on a daemon thread (tests, benches).

    Context-manager: ``__enter__`` boots the loop and waits until the
    socket is listening, ``__exit__`` requests a graceful shutdown (unless
    a client already shut the daemon down) and joins the thread. The
    listening address is available as :attr:`address`.
    """

    def __init__(self, server: ResolverServer, *, compact: "bool | None" = None):
        self.server = server
        self.compact = compact
        self.final_stats: "dict | None" = None
        self._ready = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._error: "BaseException | None" = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> "str | tuple[str, int]":
        return self.server.address

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        try:
            await self.server.wait_closed()
        finally:
            await self.server.aclose()
        self.final_stats = self.server._stats_payload()

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the daemon and join its thread (idempotent)."""
        loop = self._loop
        if loop is not None and self._thread.is_alive() and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.request_shutdown(compact=self.compact), loop
                ).result(timeout=timeout)
            except Exception:
                # Already shut down by a client, or the loop just exited —
                # joining below is the actual teardown guarantee.
                pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not exit")


__all__ = [
    "BackgroundServer",
    "DEFAULT_FLUSH_INTERVAL",
    "DEFAULT_QUEUE_LIMIT",
    "LATENCY_WINDOW",
    "ResolverServer",
]
