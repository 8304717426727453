"""Protocol-level tests for the ``repro serve`` daemon."""

import json
import socket
import threading
import time

import pytest

from repro.blocking import TokenBlocking
from repro.client import ConnectFailed, ResolverClient, ServerError
from repro.core.execution import ExecutionConfig
from repro.core.faults import Fault, injected_faults
from repro.datamodel.profiles import EntityProfile
from repro.incremental import IncrementalMetaBlocking
from repro.serve import BackgroundServer, ResolverServer
from repro.serve.protocol import (
    ERR_BAD_FRAME,
    ERR_FRAME_TOO_LARGE,
    ERR_INVALID_REQUEST,
    ERR_OVERLOADED,
    ERR_UNKNOWN_VERB,
    decode_frame,
    encode_frame,
    profile_to_wire,
)


def _profile(identifier: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(identifier, {"text": text})


def _resolver(**kwargs) -> IncrementalMetaBlocking:
    defaults = dict(keys_for=TokenBlocking().keys_for, scheme="CBS", k=3)
    defaults.update(kwargs)
    return IncrementalMetaBlocking(**defaults)


def _corpus(n: int) -> "list[EntityProfile]":
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    return [
        _profile(f"p{i}", f"{words[i % 5]} {words[(i // 2) % 5]} item{i % 7}")
        for i in range(n)
    ]


@pytest.fixture
def server(tmp_path):
    """A running daemon on a Unix socket, no coalescing."""
    instance = ResolverServer(
        _resolver(), path=tmp_path / "er.sock", flush_size=1
    )
    with BackgroundServer(instance) as background:
        yield background


@pytest.fixture
def client(server):
    with ResolverClient(server.address, timeout=10) as connected:
        yield connected


def _raw_connection(address) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(str(address))
    return sock


def _roundtrip_raw(sock: socket.socket, payload: dict) -> dict:
    sock.sendall(encode_frame(payload))
    return _read_raw(sock)


def _read_raw(sock: socket.socket) -> dict:
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    return decode_frame(buffer)


class TestVerbs:
    def test_ping(self, client):
        result = client.ping()
        assert result["pong"] is True
        assert result["epoch"] == 0

    def test_single_upsert_matches_in_process(self, client):
        mirror = _resolver()
        for i, profile in enumerate(_corpus(12)):
            entity_id, candidates = client.upsert(profile)
            assert entity_id == i
            assert candidates == mirror.add(profile)

    def test_batch_upsert_matches_in_process(self, client):
        mirror = _resolver()
        profiles = _corpus(10)
        entity_ids, candidate_lists = client.upsert_many(profiles)
        assert entity_ids == list(range(10))
        assert candidate_lists == mirror.add_batch(profiles)

    def test_upsert_accepts_wire_profiles(self, client):
        entity_id, _ = client.upsert(profile_to_wire(_profile("a", "x y")))
        assert entity_id == 0
        assert client.stats()["profiles"] == 1

    def test_query(self, client):
        profiles = _corpus(8)
        client.upsert_many(profiles)
        mirror = _resolver()
        mirror.add_batch(profiles)
        assert client.query(3) == mirror.query(3)
        assert client.query(3, k=1) == mirror.query(3, k=1)

    def test_query_unknown_entity(self, client):
        client.upsert(_profile("a", "x"))
        with pytest.raises(ServerError) as excinfo:
            client.query(99)
        assert excinfo.value.code == ERR_INVALID_REQUEST

    def test_query_invalid_k(self, client):
        client.upsert(_profile("a", "x"))
        with pytest.raises(ServerError) as excinfo:
            client.query(0, k=0)
        assert excinfo.value.code == ERR_INVALID_REQUEST

    def test_candidates_matches_in_process(self, client):
        profiles = _corpus(15)
        client.upsert_many(profiles)
        mirror = _resolver()
        mirror.add_batch(profiles)
        for algorithm in ("CNP", "WNP", "RcCNP"):
            assert client.candidate_pairs(algorithm) == [
                tuple(pair) for pair in mirror.candidate_pairs(algorithm)
            ]

    def test_candidates_unknown_algorithm(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.candidate_pairs("WEP")
        assert excinfo.value.code == ERR_INVALID_REQUEST

    def test_compact(self, client):
        client.upsert_many(_corpus(6))
        result = client.compact()
        assert result["compactions"] == 1
        assert client.stats()["delta_assignments"] == 0

    def test_stats_shape(self, client):
        client.upsert(_profile("a", "x y z"))
        client.query(0)
        stats = client.stats()
        assert stats["profiles"] == 1
        assert stats["pending"] == 0
        assert stats["scheme"] == "CBS"
        assert stats["total_requests"] == 2
        assert stats["requests"] == {"upsert": 1, "query": 1}
        assert stats["qps"] > 0
        assert set(stats["latency_ms"]) == {"upsert", "query"}
        for bucket in stats["latency_ms"].values():
            assert bucket["p50"] <= bucket["p99"]
        assert json.dumps(stats)  # the whole payload is JSON-serialisable

    def test_stats_execution_round_trips(self, tmp_path):
        execution = ExecutionConfig(parallel=2)
        instance = ResolverServer(
            _resolver(execution=execution),
            path=tmp_path / "er.sock",
        )
        with BackgroundServer(instance) as background:
            with ResolverClient(background.address, timeout=10) as connected:
                wire = connected.stats()["execution"]
        assert ExecutionConfig.from_dict(wire) == execution

    def test_shutdown(self, tmp_path):
        instance = ResolverServer(_resolver(), path=tmp_path / "er.sock")
        with BackgroundServer(instance) as background:
            address = background.address
            with ResolverClient(address, timeout=10) as connected:
                connected.upsert(_profile("a", "x"))
                result = connected.shutdown()
            assert result["profiles"] == 1
            assert result["compacted"] is False
            background.stop()  # idempotent after a client shutdown
            assert not (tmp_path / "er.sock").exists()
            with pytest.raises(ConnectFailed):
                ResolverClient(
                    address, timeout=1, connect_retries=0
                ).ping()

    def test_shutdown_with_compact(self, server):
        with ResolverClient(server.address, timeout=10) as connected:
            connected.upsert(_profile("a", "x y"))
            result = connected.shutdown(compact=True)
        assert result["compacted"] is True
        assert result["compactions"] == 1


class TestProtocolEdges:
    def test_malformed_frame_keeps_connection(self, server):
        with _raw_connection(server.address) as sock:
            sock.sendall(b"this is not json\n")
            response = _read_raw(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == ERR_BAD_FRAME
            # The stream is still aligned: a valid request works.
            response = _roundtrip_raw(sock, {"id": 7, "verb": "ping"})
            assert response["ok"] is True
            assert response["id"] == 7

    def test_non_object_frame(self, server):
        with _raw_connection(server.address) as sock:
            response = _roundtrip_raw(sock, [1, 2, 3])
            assert response["error"]["code"] == ERR_BAD_FRAME

    def test_unknown_verb(self, server):
        with _raw_connection(server.address) as sock:
            response = _roundtrip_raw(sock, {"id": 1, "verb": "resolve"})
            assert response["error"]["code"] == ERR_UNKNOWN_VERB
            assert response["id"] == 1

    def test_missing_fields(self, server):
        with _raw_connection(server.address) as sock:
            response = _roundtrip_raw(sock, {"id": 1, "verb": "query"})
            assert response["error"]["code"] == ERR_INVALID_REQUEST
            response = _roundtrip_raw(
                sock, {"id": 2, "verb": "upsert", "profile": "nope"}
            )
            assert response["error"]["code"] == ERR_INVALID_REQUEST

    def test_oversized_frame_closes_connection(self, tmp_path):
        instance = ResolverServer(
            _resolver(), path=tmp_path / "er.sock", max_frame_bytes=4096
        )
        with BackgroundServer(instance) as background:
            with _raw_connection(background.address) as sock:
                huge = {"id": 1, "verb": "upsert", "junk": "x" * 10000}
                response = _roundtrip_raw(sock, huge)
                assert response["error"]["code"] == ERR_FRAME_TOO_LARGE
                assert sock.recv(1) == b""  # server closed its end
            # The daemon itself survives oversized frames.
            with ResolverClient(background.address, timeout=10) as connected:
                assert connected.ping()["pong"] is True

    def test_non_integer_fields_are_invalid(self, server):
        # Raw frames: JSON's 1.7/1.0/Infinity/NaN decode to floats and
        # true to a bool, none of which may be coerced into an entity id,
        # k or source. Each answer is invalid-request, nothing is inserted,
        # and the daemon keeps answering.
        profile = json.dumps(profile_to_wire(_profile("z", "alpha beta")))
        query = '{"id":1,"verb":"query",'
        upsert = '{"id":1,"verb":"upsert","profile":%s,' % profile
        batch = '{"id":1,"verb":"upsert","profiles":[%s,%s],' % (
            profile,
            profile,
        )
        frames = [
            query + '"entity_id":Infinity}',
            query + '"entity_id":-Infinity}',
            query + '"entity_id":NaN}',
            query + '"entity_id":1.7}',
            query + '"entity_id":1.0}',
            query + '"entity_id":true}',
            query + '"entity_id":"2"}',
            query + '"entity_id":null}',
            query + '"entity_id":1,"k":Infinity}',
            query + '"entity_id":1,"k":2.5}',
            query + '"entity_id":1,"k":true}',
            query + '"entity_id":1,"k":"2"}',
            upsert + '"source":Infinity}',
            upsert + '"source":0.5}',
            upsert + '"source":true}',
            upsert + '"source":"1"}',
            upsert + '"source":null}',
            batch + '"sources":[0,0.5]}',
            batch + '"sources":[0,Infinity]}',
            batch + '"sources":[true,0]}',
            batch + '"sources":"01"}',
            batch + '"sources":0.5}',
        ]
        with _raw_connection(server.address) as sock:
            for i, item in enumerate(_corpus(3)):
                response = _roundtrip_raw(
                    sock,
                    {"id": i, "verb": "upsert",
                     "profile": profile_to_wire(item)},
                )
                assert response["ok"] is True
            for frame in frames:
                sock.sendall(frame.encode() + b"\n")
                response = _read_raw(sock)
                assert response["ok"] is False, frame
                assert response["error"]["code"] == ERR_INVALID_REQUEST, frame
                pong = _roundtrip_raw(sock, {"id": 2, "verb": "ping"})
                assert pong["ok"] is True, frame
            stats = _roundtrip_raw(sock, {"id": 3, "verb": "stats"})
            assert stats["result"]["profiles"] == 3
            assert stats["result"]["pending"] == 0
            response = _roundtrip_raw(
                sock, {"id": 4, "verb": "query", "entity_id": 1, "k": 2}
            )
            assert response["ok"] is True

    def test_blank_lines_are_skipped(self, server):
        with _raw_connection(server.address) as sock:
            sock.sendall(b"\n\n")
            response = _roundtrip_raw(sock, {"id": 3, "verb": "ping"})
            assert response["id"] == 3


class TestCoalescing:
    def test_interval_flush_answers_parked_upserts(self, tmp_path):
        instance = ResolverServer(
            _resolver(),
            path=tmp_path / "er.sock",
            flush_size=64,
            flush_interval=0.02,
        )
        with BackgroundServer(instance) as background:
            with ResolverClient(background.address, timeout=10) as connected:
                # The buffer never fills (64); only the idle timer can
                # answer, so each response proves the deadline flush works.
                for i, profile in enumerate(_corpus(3)):
                    entity_id, _ = connected.upsert(profile)
                    assert entity_id == i
                assert connected.stats()["profiles"] == 3

    def test_concurrent_clients_coalesce(self, tmp_path):
        instance = ResolverServer(
            _resolver(),
            path=tmp_path / "er.sock",
            flush_size=4,
            flush_interval=5.0,  # too long: only a full buffer flushes
        )
        profiles = _corpus(4)
        results: dict = {}

        def upsert_one(position: int) -> None:
            with ResolverClient(instance.path, timeout=10) as connected:
                results[position] = connected.upsert(profiles[position])

        with BackgroundServer(instance):
            threads = [
                threading.Thread(target=upsert_one, args=(i,))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert sorted(entity_id for entity_id, _ in results.values()) == [
            0, 1, 2, 3,
        ]
        assert len(instance.resolver) == 4
        assert instance.resolver.pending == 0

    def test_barrier_verbs_flush_parked(self, tmp_path):
        instance = ResolverServer(
            _resolver(),
            path=tmp_path / "er.sock",
            flush_size=100,
            flush_interval=5.0,
        )
        with BackgroundServer(instance) as background:
            arrived = []

            def upsert_slow() -> None:
                with ResolverClient(background.address, timeout=10) as other:
                    arrived.append(other.upsert(_profile("slow", "x y")))

            thread = threading.Thread(target=upsert_slow)
            thread.start()
            deadline = time.monotonic() + 5
            while (
                instance.resolver.pending == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            with ResolverClient(background.address, timeout=10) as connected:
                # query is a barrier: the parked upsert commits first.
                assert connected.query(0) == []
            thread.join(timeout=10)
        assert arrived == [(0, [])]


class TestDisconnects:
    def test_graceful_disconnect_mid_batch(self, tmp_path):
        instance = ResolverServer(
            _resolver(),
            path=tmp_path / "er.sock",
            flush_size=100,
            flush_interval=0.02,
        )
        with BackgroundServer(instance) as background:
            sock = _raw_connection(background.address)
            sock.sendall(
                encode_frame(
                    {
                        "id": 1,
                        "verb": "upsert",
                        "profile": profile_to_wire(_profile("a", "x y")),
                    }
                )
            )
            sock.close()  # walk away without reading the response
            deadline = time.monotonic() + 5
            while len(instance.resolver) == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            # The parked upsert still committed server-side.
            with ResolverClient(background.address, timeout=10) as connected:
                assert connected.stats()["profiles"] == 1

    def test_hard_disconnect_mid_batch(self):
        # TCP + SO_LINGER(0) sends an RST: the handler sees a reset, not a
        # clean EOF, and the daemon must shrug it off.
        instance = ResolverServer(
            _resolver(), host="127.0.0.1", flush_size=100, flush_interval=0.02
        )
        with BackgroundServer(instance) as background:
            host, port = background.address
            sock = socket.create_connection((host, port), timeout=10)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            sock.sendall(
                encode_frame(
                    {
                        "id": 1,
                        "verb": "upsert",
                        "profile": profile_to_wire(_profile("a", "x y")),
                    }
                )
            )
            sock.close()
            deadline = time.monotonic() + 5
            while len(instance.resolver) == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            with ResolverClient((host, port), timeout=10) as connected:
                assert connected.stats()["profiles"] == 1
                connected.upsert(_profile("b", "x z"))
                assert connected.stats()["profiles"] == 2


class TestBackpressure:
    def test_overloaded_when_queue_full(self, tmp_path):
        instance = ResolverServer(
            _resolver(), path=tmp_path / "er.sock", queue_limit=1
        )
        with injected_faults(
            Fault(op="delay", task="serve:compact", seconds=0.4)
        ):
            with BackgroundServer(instance) as background:
                slow = _raw_connection(background.address)
                slow.sendall(encode_frame({"id": 1, "verb": "compact"}))
                time.sleep(0.05)  # let the dispatcher enter the slow verb
                fast = _raw_connection(background.address)
                # First ping occupies the single queue slot; pings after it
                # must be refused while the dispatcher is busy.
                fast.sendall(encode_frame({"id": 2, "verb": "ping"}))
                overload = _raw_connection(background.address)
                response = _roundtrip_raw(
                    overload, {"id": 3, "verb": "ping"}
                )
                assert response["error"]["code"] == ERR_OVERLOADED
                # The queued ping and the slow compact both complete.
                assert _read_raw(fast)["ok"] is True
                assert _read_raw(slow)["ok"] is True
                slow.close()
                fast.close()
                overload.close()
        assert instance.stats()["overloaded"] == 1

    def test_client_retries_overloaded(self, tmp_path):
        instance = ResolverServer(
            _resolver(), path=tmp_path / "er.sock", queue_limit=1
        )
        with injected_faults(
            Fault(op="delay", task="serve:compact", seconds=0.3)
        ):
            with BackgroundServer(instance) as background:
                slow = _raw_connection(background.address)
                slow.sendall(encode_frame({"id": 1, "verb": "compact"}))
                time.sleep(0.05)
                filler = _raw_connection(background.address)
                filler.sendall(encode_frame({"id": 2, "verb": "ping"}))
                # The SDK sees 'overloaded', backs off, and succeeds once
                # the dispatcher drains.
                with ResolverClient(
                    background.address,
                    timeout=10,
                    retry_backoff=0.1,
                    request_retries=8,
                ) as connected:
                    assert connected.ping()["pong"] is True
                assert _read_raw(filler)["ok"] is True
                assert _read_raw(slow)["ok"] is True
                slow.close()
                filler.close()
        assert instance.stats()["overloaded"] >= 1


class TestShutdownSemantics:
    def test_shutdown_flushes_parked_upserts(self, tmp_path):
        instance = ResolverServer(
            _resolver(),
            path=tmp_path / "er.sock",
            flush_size=100,
            flush_interval=5.0,
        )
        with BackgroundServer(instance) as background:
            arrived = []

            def upsert_parked() -> None:
                with ResolverClient(background.address, timeout=10) as other:
                    arrived.append(other.upsert(_profile("a", "x y")))

            thread = threading.Thread(target=upsert_parked)
            thread.start()
            deadline = time.monotonic() + 5
            while (
                instance.resolver.pending == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            with ResolverClient(background.address, timeout=10) as connected:
                result = connected.shutdown()
            thread.join(timeout=10)
            assert result["flushed"] == 1
            assert result["profiles"] == 1
            assert arrived == [(0, [])]

    def test_stop_after_client_shutdown_does_not_wait_for_a_reply(
        self, tmp_path
    ):
        """A client's ``shutdown`` came first and the loop is exiting:
        ``stop()`` must not send its own and wait for a reply that never
        comes. The loop is held in its teardown (a default-executor job
        blocks its shutdown) for 0.5 s while ``stop()`` runs."""
        instance = ResolverServer(_resolver(), path=tmp_path / "er.sock")
        gate = threading.Event()
        with BackgroundServer(instance) as background:
            loop = background._loop
            loop.call_soon_threadsafe(loop.run_in_executor, None, gate.wait, 5)
            with ResolverClient(background.address, timeout=10) as connected:
                connected.shutdown()
            deadline = time.monotonic() + 10
            while background.final_stats is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.2)  # past the loop's cancellation of its tasks
            threading.Timer(0.5, gate.set).start()
            started = time.monotonic()
            background.stop(timeout=5)
            assert time.monotonic() - started < 4

    def test_requests_after_shutdown_are_rejected(self, tmp_path):
        instance = ResolverServer(_resolver(), path=tmp_path / "er.sock")
        with BackgroundServer(instance) as background:
            with ResolverClient(background.address, timeout=10) as connected:
                connected.shutdown()
            with pytest.raises(ConnectFailed):
                ResolverClient(
                    background.address, timeout=1, connect_retries=0
                ).ping()
