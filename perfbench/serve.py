"""``serve-mixed``: a ``repro serve`` daemon under bulk and interactive load.

The daemon runs in its own process on a Unix socket with a write-ahead log
at ``fsync=batch``; this process is the load generator, with at most
``nproc`` connections. Phases:

1. bulk ingest of part of the stream as ``upsert_many`` chunks, closed
   loop, on every connection;
2. a discarded closed-loop warm-up, then rounds of two windows of the
   interactive mix (4 upserts : 1 query): an open-loop window at
   :data:`~common.OFFERED_RPS` on one pipelined connection, every request
   timed from when it was due, and a closed-loop window of a fixed
   request count on every connection (saturation);
3. repeated ``candidates`` RcWNP exports, a graceful shutdown, then
   ``IncrementalMetaBlocking.recover`` over the WAL left behind.

After the run, every daemon response is checked against an in-process
replay of the daemon's commit order, and the recovered export against the
live one.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

from common import (
    Calibration,
    MAX_MEDIAN_LAG_GAPS,
    MIX_UPSERTS,
    OFFERED_RPS,
    OUT,
    ROOT,
    child_env,
    median,
    timing,
    vm_hwm_mb,
)

EXPORT_ALGORITHM = "RcWNP"
SETUP_SAMPLES = 5
EXPORT_SAMPLES = 3
RECOVERY_SAMPLES = 3
#: Requests of the discarded closed-loop warm-up.
WARMUP_REQUESTS = 200
#: Share of ``--seconds`` spent in alternating open/closed-loop windows.
INTERACTIVE_SHARE = 0.5
#: Seconds of one open-loop window (its request count is fixed by the rate).
OPEN_WINDOW = 1.0
#: Requests of one closed-loop window: a fixed count, so the daemon ends
#: every run holding the same profiles however fast the host was.
CLOSED_REQUESTS = 400
#: Closed-loop window length assumed when sizing the rounds.
CLOSED_WINDOW = 0.5


def make_inputs(seed: int, sizes: dict):
    """The D1-like stream as one Dirty stream, in a seeded order."""
    from repro.datasets.synthetic import DEFAULT_SCALES, bibliographic_dataset

    dataset = bibliographic_dataset(
        DEFAULT_SCALES["D1"].scaled(sizes["d1"]), seed=seed
    )
    stream = [profile for _, profile in dataset.iter_profiles()]
    random.Random(seed).shuffle(stream)
    return stream


class Daemon:
    """One ``python -m repro serve`` process; ``setup_s`` is the time from
    spawning it until ``health`` reports ``ready``."""

    def __init__(self, workdir, name: str) -> None:
        self.socket = str(workdir / f"{name}.sock")
        self.wal_dir = workdir / f"{name}-wal"
        self._log = open(workdir / f"{name}.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket,
                "--wal-dir", str(self.wal_dir),
                "--fsync", "batch",
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            self.setup_s = self._wait_ready(started)
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self, started: float, timeout: float = 60.0) -> float:
        from repro.client import ClientError, ResolverClient

        while time.perf_counter() - started < timeout:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} at start-up"
                )
            client = ResolverClient(
                self.socket, timeout=10, connect_retries=0, request_retries=0
            )
            try:
                if client.health()["status"] == "ready":
                    return time.perf_counter() - started
            except ClientError:
                pass
            finally:
                client.close()
            time.sleep(0.002)
        raise RuntimeError(f"daemon not ready after {timeout}s")

    def client(self, **kwargs):
        from repro.client import ResolverClient

        return ResolverClient(
            self.socket, timeout=60, request_retries=0, **kwargs
        ).connect()

    def stats(self) -> dict:
        """The daemon's ``stats``, over a connection of its own."""
        with self.client() as client:
            return client.stats()

    def shutdown(self) -> None:
        client = self.client()
        try:
            client.shutdown()
        finally:
            client.close()
        try:
            self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self._log.close()


class Ledger:
    """What the generator sent and got back, for the replay check."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (first entity id, profiles, candidate lists) per committed write.
        self.writes: "list[tuple[int, list, list]]" = []
        #: (lowest state, highest state, target, neighbours) per query.
        self.queries: "list[tuple[int, int, int, list]]" = []
        self.attempted = 0
        self.errors: "list[str]" = []

    def error(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)


def _key(candidate) -> tuple:
    """Comparable form of a candidate, from an object or its wire dict."""
    if isinstance(candidate, dict):
        return (
            int(candidate["entity_id"]),
            float(candidate["weight"]),
            int(candidate["common_blocks"]),
        )
    return (candidate.entity_id, candidate.weight, candidate.common_blocks)


class Feed:
    """Hands out stream profiles and mix positions to generator threads,
    and brackets every query by the states it can have run against."""

    def __init__(self, stream, start: int, base: int, limit: int) -> None:
        self.stream = stream
        self.next_profile = start
        self.base = base  # profiles committed before this phase
        self.limit = limit  # operations handed out in this phase
        self.ops = 0
        self.sent = 0  # upserts sent in this phase
        self.acked = 0  # upserts answered in this phase
        self.lock = threading.Lock()

    def next_op(self):
        """``("upsert", profile)``, ``("query", target, lowest_state)`` or
        ``None`` once the phase's operations or the stream are used up."""
        with self.lock:
            if self.ops >= self.limit:
                return None
            position = self.ops
            self.ops += 1
            if position % (MIX_UPSERTS + 1) == MIX_UPSERTS:
                lowest = self.base + self.acked
                return ("query", (position * 13) % lowest, lowest)
            if self.next_profile >= len(self.stream):
                return None
            profile = self.stream[self.next_profile]
            self.next_profile += 1
            self.sent += 1
            return ("upsert", profile)

    def acknowledge(self) -> None:
        with self.lock:
            self.acked += 1

    def highest_state(self) -> int:
        with self.lock:
            return self.base + self.sent


def _bulk(daemon, stream, count, chunk, connections, ledger) -> float:
    """Phase 1: ``upsert_many`` chunks over every connection, closed loop."""
    chunks = [stream[start : min(start + chunk, count)] for start in range(0, count, chunk)]
    cursor = iter(range(len(chunks)))
    lock = threading.Lock()

    def worker():
        with daemon.client() as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                profiles = chunks[index]
                try:
                    ids, lists = client.upsert_many(profiles)
                except Exception as exc:  # counted, never fatal mid-phase
                    ledger.error(f"bulk chunk {index}: {exc}")
                    continue
                with ledger.lock:
                    ledger.writes.append((ids[0], profiles, [
                        [_key(c) for c in candidates] for candidates in lists
                    ]))

    ledger.attempted += len(chunks)
    started = time.perf_counter()
    _run_threads(worker, connections)
    return time.perf_counter() - started


def _run_threads(worker, count: int) -> None:
    """Run ``worker`` on ``count`` threads, this one included."""
    threads = [threading.Thread(target=worker) for _ in range(count - 1)]
    for thread in threads:
        thread.start()
    try:
        worker()
    finally:
        for thread in threads:
            thread.join()


def _closed_loop(daemon, feed, connections, ledger) -> dict:
    """The interactive mix on every connection, each waiting for its reply."""
    latencies = {"upsert": [], "query": []}

    def worker():
        with daemon.client() as client:
            while True:
                op = feed.next_op()
                if op is None:
                    return
                with ledger.lock:
                    ledger.attempted += 1
                tick = time.perf_counter()
                try:
                    if op[0] == "upsert":
                        entity_id, candidates = client.upsert(op[1])
                        feed.acknowledge()
                        record = (entity_id, [op[1]], [[_key(c) for c in candidates]])
                    else:
                        neighbors = client.query(op[1])
                        record = (op[2], feed.highest_state(), op[1],
                                  [_key(c) for c in neighbors])
                except Exception as exc:
                    ledger.error(f"closed-loop {op[0]}: {exc}")
                    continue
                elapsed = time.perf_counter() - tick
                with ledger.lock:
                    latencies[op[0]].append(elapsed)
                    (ledger.writes if op[0] == "upsert" else ledger.queries).append(record)

    started = time.perf_counter()
    _run_threads(worker, connections)
    return {"elapsed": time.perf_counter() - started, **latencies}


def _open_loop(daemon, feed, ledger, protocol) -> dict:
    """Phase 2: requests sent on schedule over one pipelined connection.

    The sender never waits for a reply; a reader thread matches replies to
    requests in order (one connection answers in request order), so one
    stall delays every later reply and the due-time latency shows it.
    """
    import socket as socket_module

    total = feed.limit
    gap = 1.0 / OFFERED_RPS
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.connect(daemon.socket)
    reader = sock.makefile("rb")
    due, sent, ops = [0.0] * total, [0.0] * total, [None] * total
    received = [0.0] * total
    replies = [None] * total

    def receive():
        # Ends at EOF: the sender half-closes once every request is out,
        # and the daemon closes its end after answering the last one.
        for index in range(total):
            line = reader.readline()
            if not line:
                return
            received[index] = time.perf_counter()
            replies[index] = protocol.decode_frame(line)

    receiver = threading.Thread(target=receive)
    receiver.start()
    issued = 0
    start = time.perf_counter() + 0.01
    try:
        for index in range(total):
            op = feed.next_op()
            if op is None:
                break
            due[index] = start + index * gap
            delay = due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if op[0] == "upsert":
                request = {"id": index, "verb": "upsert",
                           "profile": protocol.profile_to_wire(op[1])}
            else:
                request = {"id": index, "verb": "query", "entity_id": op[1]}
            frame = protocol.encode_frame(request)
            sent[index] = time.perf_counter()
            sock.sendall(frame)
            ops[index] = op
            issued = index + 1
    finally:
        sock.shutdown(socket_module.SHUT_WR)
        receiver.join(timeout=120)
        reader.close()
        sock.close()
    ledger.attempted += issued
    latencies = {"upsert": [], "query": [], "rtt_upsert": [], "lag": []}
    state = feed.base
    for index in range(issued):
        op, reply = ops[index], replies[index]
        latencies["lag"].append(sent[index] - due[index])
        if reply is None or not reply.get("ok"):
            error = None if reply is None else reply.get("error")
            ledger.error(f"open-loop {op[0]} {index}: {error}")
            continue
        result = reply["result"]
        latencies[op[0]].append(received[index] - due[index])
        if op[0] == "upsert":
            latencies["rtt_upsert"].append(received[index] - sent[index])
            ledger.writes.append((result["entity_id"], [op[1]],
                                  [[_key(c) for c in result["candidates"]]]))
            state += 1
        else:
            # One FIFO connection: the query ran after every earlier upsert.
            ledger.queries.append((state, state, op[1],
                                   [_key(c) for c in result["neighbors"]]))
    return latencies


def _replay(api, ledger, live_export, recovered_export) -> "list[str]":
    """Check every response against an in-process resolver fed the
    daemon's commit order, then the two exports against its export."""
    mismatches = []
    writes = sorted(ledger.writes, key=lambda write: write[0])
    expected_id = 0
    for first_id, profiles, _ in writes:
        if first_id != expected_id:
            return [f"entity ids not contiguous at {expected_id} (got {first_id})"]
        expected_id += len(profiles)
    queries_at = defaultdict(list)
    for index, (lowest, highest, _, _) in enumerate(ledger.queries):
        for state in range(lowest, highest + 1):
            queries_at[state].append(index)
    matched = [False] * len(ledger.queries)
    resolver = api.stream_resolver(scheme="JS", k=5)
    state = 0
    for first_id, profiles, lists in writes:
        if len(profiles) == 1:
            got = [resolver.add(profiles[0])]
        else:
            got = resolver.add_batch(profiles)
        if [[_key(c) for c in candidates] for candidates in got] != lists:
            mismatches.append(f"upsert at entity {first_id} differs from replay")
        state += len(profiles)
        for index in queries_at.get(state, ()):
            if not matched[index]:
                _, _, target, neighbors = ledger.queries[index]
                matched[index] = [_key(c) for c in resolver.query(target)] == neighbors
    missed = matched.count(False)
    if missed:
        mismatches.append(f"{missed} queries match no replay state in their window")
    replayed = sorted(tuple(pair) for pair in resolver.candidate_pairs(EXPORT_ALGORITHM).pairs)
    if sorted(live_export) != replayed:
        mismatches.append("daemon export differs from the replay export")
    if sorted(recovered_export) != replayed:
        mismatches.append("recovered export differs from the live export")
    return mismatches


def run(seed: int, seconds: float, sizes: dict, trace: bool) -> dict:
    from repro import api
    from repro.incremental import IncrementalMetaBlocking
    from repro.serve import protocol

    stream = make_inputs(seed, sizes)
    connections = max(1, min(2, len(os.sched_getaffinity(0))))
    workdir = OUT / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        seconds = min(seconds, 12.0)
    calibration = Calibration()
    try:
        setups = []
        for probe in range(SETUP_SAMPLES - 1):
            calibration.sample()
            daemon = Daemon(workdir, f"probe-{probe}")
            setups.append(daemon.setup_s)
            daemon.shutdown()
        calibration.sample()
        daemon = Daemon(workdir, "main")
        setups.append(daemon.setup_s)
        try:
            return _drive(api, IncrementalMetaBlocking, protocol, daemon,
                          stream, seconds, sizes, connections, setups,
                          workdir, tracer, calibration)
        finally:
            daemon.kill()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _drive(api, resolver_class, protocol, daemon, stream, seconds, sizes,
           connections, setups, workdir, tracer, calibration) -> dict:
    ledger = Ledger()
    bulk_count = int(len(stream) * sizes["bulk_fraction"])
    rounds = max(2, int(INTERACTIVE_SHARE * seconds / (OPEN_WINDOW + CLOSED_WINDOW)))
    opened, closed = [], []
    spans = {"open": {}, "closed": {}}
    bulk_elapsed = _bulk(daemon, stream, bulk_count, sizes["chunk"],
                         connections, ledger)
    stats_bulk = daemon.stats()

    feed = Feed(stream, bulk_count, bulk_count, WARMUP_REQUESTS)
    _closed_loop(daemon, feed, 1, ledger)
    committed = feed.base + feed.acked
    # Open- and closed-loop windows alternate, so a slow spell of the
    # host lands on both kinds rather than on one whole phase. In the
    # traced run every other round is traced.
    for round_index in range(rounds):
        calibration.sample()
        traced = tracer is not None and round_index % 2 == 1
        feed = Feed(stream, feed.next_profile, committed,
                    int(OFFERED_RPS * OPEN_WINDOW))
        window = _traced(tracer if traced else None, protocol, spans["open"],
                         lambda: _open_loop(daemon, feed, ledger, protocol))
        opened.append({**window, "traced": traced})
        committed = feed.base + feed.sent
        feed = Feed(stream, feed.next_profile, committed, CLOSED_REQUESTS)
        window = _traced(tracer if traced else None, protocol, spans["closed"],
                         lambda: _closed_loop(daemon, feed, connections, ledger))
        closed.append({**window, "traced": traced})
        committed = feed.base + feed.acked
    stats_interactive = daemon.stats()

    exports = []
    with daemon.client() as client:
        for _ in range(EXPORT_SAMPLES):
            tick = time.perf_counter()
            live_export = client.candidate_pairs(EXPORT_ALGORITHM)
            exports.append(time.perf_counter() - tick)
            ledger.attempted += 1
    peak_rss_mb = vm_hwm_mb(daemon.process.pid)
    daemon.shutdown()

    recoveries, recovered_export = [], None
    for sample in range(RECOVERY_SAMPLES):
        copy = workdir / f"recover-{sample}"
        shutil.copytree(daemon.wal_dir, copy)
        tick = time.perf_counter()
        recovered, _ = resolver_class.recover(copy)
        recoveries.append(time.perf_counter() - tick)
        if recovered_export is None:
            recovered_export = [
                tuple(pair)
                for pair in recovered.candidate_pairs(EXPORT_ALGORITHM).pairs
            ]
        if recovered.wal is not None:
            recovered.wal.close()
        shutil.rmtree(copy, ignore_errors=True)

    # -- correctness, outside every timed region -----------------------------
    mismatches = list(ledger.errors)
    if feed.next_profile >= len(stream):
        mismatches.append("stream used up before the last window ended")
    mismatches += _replay(api, ledger, live_export, recovered_export)
    lag = timing([x for w in opened for x in w["lag"]], 1e3)
    if lag["p50"] > MAX_MEDIAN_LAG_GAPS * 1e3 / OFFERED_RPS:
        mismatches.append(
            f"invalid run: open-loop generator ran {lag['p50']:.2f} ms late "
            "at the median"
        )

    untraced_open = [w for w in opened if not w["traced"]]
    untraced_closed = [w for w in closed if not w["traced"]]
    rates = [_rate(w) for w in untraced_closed]
    upsert_ms = timing([x for w in untraced_open for x in w["upsert"]], 1e3)
    query_ms = timing([x for w in untraced_open for x in w["query"]], 1e3)
    # The host's speed drifts by tens of percent: the contract metrics take
    # the least-disturbed window (best median, best rate) and the fastest
    # export, scaled to the calibrated reference speed; the report keeps
    # the raw pooled medians and tails.
    calibration.sample()
    factor = calibration.factor()
    best_p50 = min(timing(w["upsert"], 1e3)["p50"] for w in untraced_open)
    out = {
        "sizes": {
            **sizes,
            "profiles": len(stream),
            "bulk_profiles": bulk_count,
            "connections": connections,
            "offered_rps": OFFERED_RPS,
            "rounds": rounds,
            "open_window_s": OPEN_WINDOW,
            "closed_window_requests": CLOSED_REQUESTS,
        },
        "attempted": ledger.attempted + len(setups),
        "failed": len(mismatches),
        "mismatches": mismatches[:20],
        "named": {
            "setup_s": {"unit": "s", **timing(setups)},
            "upserts_per_s": {"unit": "1/s", "value": bulk_count / bulk_elapsed},
            "upsert_ms": {"unit": "ms", **upsert_ms},
            "query_ms": {"unit": "ms", **query_ms},
            "export_s": {"unit": "s", **timing(exports)},
            "saturation_rps": {"unit": "1/s", "value": median(rates)},
            "recovery_s": {"unit": "s", **timing(recoveries)},
            "peak_rss_mb": {"unit": "MB", "value": peak_rss_mb},
            "lag_ms": {"unit": "ms", **lag},
            "retained": {"unit": "count", "value": len(live_export)},
            "calibration": calibration.summary(),
        },
        "generic": {
            "setup_s": factor * median(setups),
            "graph_s": factor * min(exports),
            "ops_per_s": max(rates) / factor,
            "op_p50_ms": factor * best_p50,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        singles = sum(1 for write in ledger.writes if len(write[1]) == 1)
        out["layers"] = _layers(
            spans, opened, closed, connections, stats_bulk,
            stats_interactive, lag, singles,
        )
        out["spans"] = tracer.dump()
    return out


def _rate(window: dict) -> float:
    return (len(window["upsert"]) + len(window["query"])) / window["elapsed"]


def _traced(tracer, protocol, totals: dict, body):
    """Run ``body``; when ``tracer`` is given, with client spans on, adding
    the window's self times to ``totals``."""
    if tracer is None:
        return body()
    before = tracer.self_times()
    _trace_client(tracer, protocol)
    try:
        return body()
    finally:
        tracer.restore()
        for name, seconds in tracer.self_times().items():
            totals[name] = totals.get(name, 0.0) + seconds - before.get(name, 0.0)


def _trace_client(tracer, protocol) -> None:
    """Spans around the client SDK and the protocol codec it calls."""
    import repro.client.resolver_client as sdk

    for module in (protocol, sdk):
        tracer.patch(module, "encode_frame", "client.encode")
        tracer.patch(module, "profile_to_wire", "client.encode")
        tracer.patch(module, "decode_frame", "client.decode")
    tracer.patch(sdk.ResolverClient, "call", "client.call")


def _layers(spans, opened, closed, connections, stats_bulk,
            stats_interactive, lag, singles) -> dict:
    wal = stats_interactive.get("wal") or {}
    wal_bulk = stats_bulk.get("wal") or {}
    server = stats_interactive.get("latency_ms", {})
    upsert_server = server.get("upsert", {}).get("p50", 0.0)
    untraced_open = [w for w in opened if not w["traced"]]
    traced_open = [w for w in opened if w["traced"]]
    traced_closed = [w for w in closed if w["traced"]]
    untraced_rate = median([_rate(w) for w in closed if not w["traced"]])
    traced_rate = median([_rate(w) for w in traced_closed])
    rtt = timing([x for w in untraced_open for x in w["rtt_upsert"]], 1e3)["p50"]
    profiles = stats_interactive.get("profiles", 0)
    return {
        "wal.appends": wal.get("appends", 0),
        "wal.fsyncs": wal.get("fsyncs", 0),
        "wal.fsyncs_per_upsert": wal.get("fsyncs", 0) / profiles,
        "wal.append_p50_ms": wal.get("append_ms", {}).get("p50", 0.0),
        "wal.fsync_p50_ms": wal.get("fsync_ms", {}).get("p50", 0.0),
        "wal.fsync_p99_ms": wal.get("fsync_ms", {}).get("p99", 0.0),
        "wal.bytes": wal.get("bytes", 0),
        "serve.upsert_server_p50_ms": upsert_server,
        "serve.query_server_p50_ms": server.get("query", {}).get("p50", 0.0),
        "serve.transport_p50_ms": rtt - upsert_server,
        "serve.flush_size_mean": singles
        / max(1, wal.get("appends", 0) - wal_bulk.get("appends", 0)),
        "serve.overloaded": stats_interactive.get("overloaded", 0),
        "serve.errors": stats_interactive.get("errors", 0),
        "client.encode_s": spans["open"].get("client.encode", 0.0) / len(traced_open),
        "client.decode_s": spans["open"].get("client.decode", 0.0) / len(traced_open),
        "client.lag_ms": lag.get("tail", lag["p50"]),
        "serve-mixed.coverage": sum(spans["closed"].values())
        / (connections * sum(w["elapsed"] for w in traced_closed)),
        "serve-mixed.trace_overhead": untraced_rate / traced_rate - 1.0,
    }
