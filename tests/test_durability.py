"""Crash-safety tests: write-ahead log, snapshot recovery, and the soak.

Four layers, matching the durability design in docs/architecture.md:

* WAL unit tests — framing, rotation, torn tails, CRC damage, fsync
  policies, retirement and sweeping;
* recovery equivalence — a recovered resolver's ``candidate_pairs`` are
  bit-identical to the in-process resolver that wrote the log, across
  schemes, Clean-Clean, mid-stream compactions and the threads backend;
* randomized kill points — hypothesis truncates the log at arbitrary
  byte offsets and recovery must always yield an exact prefix of the
  ingested stream, never raise, and report torn tails;
* the crash soak — a real daemon subprocess is SIGKILLed mid-ingest and
  restarted on the same WAL directory; no acknowledged upsert may be
  lost.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenBlocking
from repro.client import ClientError, ResolverClient
from repro.core.execution import ExecutionConfig
from repro.core.faults import Fault, injected_faults
from repro.core.wal import (
    WalBroken,
    WalError,
    WriteAheadLog,
    encode_profile,
    read_resolver_manifest,
    read_segment,
    sweep_stale_wal,
    wal_segments,
)
from repro.datamodel.profiles import EntityProfile
from repro.incremental import IncrementalMetaBlocking
from repro.serve import BackgroundServer, ResolverServer

BATCH = 5
STREAM = 60  # profiles in the canonical kill-point stream


def _child_pythonpath() -> str:
    """PYTHONPATH for subprocesses: the repro source tree, absolute."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def _profiles(n: int, offset: int = 0) -> "list[EntityProfile]":
    first = ["john", "jane", "mary", "peter", "lucy", "frank"]
    last = ["smith", "jones", "brown", "muller", "rossi"]
    return [
        EntityProfile.from_dict(
            f"p{i}",
            {
                "name": f"{first[i % 6]} {last[i % 5]}",
                "city": f"town{i % 9}",
                "year": str(1990 + i % 7),
            },
        )
        for i in range(offset, offset + n)
    ]


def _resolver(scheme: str = "CBS", **kwargs) -> IncrementalMetaBlocking:
    kwargs.setdefault("k", 4)
    kwargs.setdefault("filtering_ratio", 1.0)
    return IncrementalMetaBlocking(
        TokenBlocking().keys_for, scheme=scheme, **kwargs
    )


def _feed(resolver, profiles, batch=BATCH) -> None:
    for i in range(0, len(profiles), batch):
        resolver.add_batch(profiles[i : i + batch])


# -- WAL unit tests -----------------------------------------------------------


class TestWriteAheadLog:
    def test_append_read_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        seq1 = wal.append([{"identifier": "a", "attributes": [["n", "x"]]}], [0])
        seq2 = wal.append(
            [{"identifier": "b", "attributes": []},
             {"identifier": "c", "attributes": [["n", "y"]]}],
            [0, 1],
        )
        wal.close()
        assert (seq1, seq2) == (1, 2)
        (segment,) = wal_segments(tmp_path)
        records, tear = read_segment(segment)
        assert tear is None
        assert [r.seq for r in records] == [1, 2]
        assert records[0].profiles[0]["identifier"] == "a"
        assert records[1].sources == (0, 1)

    def test_rotation_and_stats(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off", segment_bytes=256)
        for i in range(12):
            wal.append(
                [{"identifier": f"p{i}", "attributes": [["n", "v" * 40]]}], [0]
            )
        stats = wal.stats()
        wal.close()
        segments = wal_segments(tmp_path)
        assert len(segments) > 1  # rotated
        assert stats["appends"] == 12
        assert stats["segments"] == len(segments)
        seqs = [
            record.seq
            for segment in segments
            for record in read_segment(segment)[0]
        ]
        assert seqs == list(range(1, 13))  # contiguous across segments

    def test_fsync_policy_counters(self, tmp_path):
        for policy, expect_fsyncs in (("off", 0), ("batch", 3), ("always", 3)):
            wal = WriteAheadLog(tmp_path / policy, fsync_policy=policy)
            for i in range(3):
                wal.append([{"identifier": f"p{i}", "attributes": []}], [0])
            assert wal.stats()["fsyncs"] == expect_fsyncs
            wal.close()

    def test_torn_tail_stops_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        for i in range(3):
            wal.append([{"identifier": f"p{i}", "attributes": []}], [0])
        wal.close()
        (segment,) = wal_segments(tmp_path)
        size = segment.stat().st_size
        with open(segment, "r+b") as handle:
            handle.truncate(size - 7)  # tear the last record mid-payload
        records, tear = read_segment(segment)
        assert [r.seq for r in records] == [1, 2]
        assert tear is not None

    def test_crc_damage_stops_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        for i in range(3):
            wal.append([{"identifier": f"p{i}", "attributes": []}], [0])
        wal.close()
        (segment,) = wal_segments(tmp_path)
        blob = bytearray(segment.read_bytes())
        blob[-3] ^= 0xFF  # flip a byte inside the final payload
        segment.write_bytes(bytes(blob))
        records, tear = read_segment(segment)
        assert [r.seq for r in records] == [1, 2]
        assert "CRC" in tear

    def test_retire_through(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off", segment_bytes=256)
        for i in range(12):
            wal.append(
                [{"identifier": f"p{i}", "attributes": [["n", "v" * 40]]}], [0]
            )
        before = wal_segments(tmp_path)
        removed = wal.retire_through(6)
        after = wal_segments(tmp_path)
        assert removed and len(after) < len(before)
        # Everything still on disk past the retired prefix is > seq 6 or
        # shares a segment with a record > 6.
        kept = [r.seq for s in after for r in read_segment(s)[0]]
        assert max(kept) == 12 and min(kept) <= 7
        wal.close()

    def test_broken_wal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        wal.append([{"identifier": "a", "attributes": []}], [0])
        wal.mark_broken("test poison")
        with pytest.raises(WalBroken):
            wal.append([{"identifier": "b", "attributes": []}], [0])
        wal.close()


class TestWalWiring:
    def test_fresh_dir_refusal(self, tmp_path):
        resolver = _resolver(wal_dir=tmp_path / "wal")
        resolver.add_batch(_profiles(4))
        with pytest.raises(ValueError, match="recover"):
            _resolver(wal_dir=tmp_path / "wal")

    def test_manifest_written_and_conflicts_detected(self, tmp_path):
        wal_dir = tmp_path / "wal"
        resolver = _resolver("CBS", wal_dir=wal_dir)
        resolver.add_batch(_profiles(4))
        manifest = read_resolver_manifest(wal_dir)
        assert manifest["scheme"] == "CBS" and manifest["k"] == 4
        recovered, _ = IncrementalMetaBlocking.recover(wal_dir, scheme="JS")
        # the manifest, not the flag, is authoritative on recovery
        assert recovered.scheme.name == "CBS"

    def test_unacked_failure_poisons_log(self, tmp_path):
        resolver = _resolver(wal_dir=tmp_path / "wal")
        resolver.add_batch(_profiles(4))
        resolver.wal.mark_broken("simulated append failure")
        with pytest.raises(WalError):
            resolver.add_batch(_profiles(4, offset=4))
        recovered, _ = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert len(recovered) == 4  # the unacked batch is not replayed

    def test_wal_dir_with_foreign_compact_dir_rejected(self, tmp_path):
        # Snapshots anchor WAL truncation; letting them land outside the
        # WAL dir would truncate the log against state recover() never
        # reads. The CLI refuses the combination and so must the API.
        with pytest.raises(ValueError, match="compact_dir"):
            _resolver(
                wal_dir=tmp_path / "wal", compact_dir=tmp_path / "elsewhere"
            )
        with pytest.raises(ValueError, match="compact_dir"):
            _resolver(
                execution=ExecutionConfig(
                    wal_dir=tmp_path / "wal2",
                    compact_dir=tmp_path / "elsewhere",
                )
            )
        with pytest.raises(ValueError, match="compact_dir"):
            IncrementalMetaBlocking.recover(
                tmp_path / "wal3", compact_dir=tmp_path / "elsewhere"
            )
        # Spelling out the canonical location explicitly is fine.
        inside = _resolver(
            wal_dir=tmp_path / "wal4",
            compact_dir=tmp_path / "wal4" / "snapshots",
        )
        assert inside.compact_dir == str(tmp_path / "wal4" / "snapshots")

    def test_snapshot_fsynced_before_wal_truncation(
        self, tmp_path, monkeypatch
    ):
        # The snapshot replaces the WAL segments compact() retires, so
        # under a durable policy save_epoch must fsync it (files + dirs)
        # before retire_through deletes them; with fsync_policy="off" the
        # snapshot write stays fsync-free.
        import repro.blockprocessing.delta_index as delta_index

        synced: "list[int]" = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(delta_index.os, "fsync", spy)
        durable = _resolver(wal_dir=tmp_path / "wal")  # default: batch
        _feed(durable, _profiles(2 * BATCH))
        synced.clear()
        durable.compact()
        # member arrays + manifest + state sidecar + tmp dir + parent dir
        assert len(synced) >= 6
        relaxed = _resolver(wal_dir=tmp_path / "wal2", fsync_policy="off")
        _feed(relaxed, _profiles(2 * BATCH))
        synced.clear()
        relaxed.compact()
        assert not synced

    def test_sweep_stale_wal(self, tmp_path):
        wal_dir = tmp_path / "wal"
        resolver = _resolver(wal_dir=wal_dir)
        _feed(resolver, _profiles(30))
        resolver.compact()  # snapshot covers every record so far
        resolver.wal.close()
        # Regress the log to pre-retirement state: fabricate an old,
        # fully-covered segment like a crash between snapshot and retire.
        stale = WriteAheadLog(tmp_path / "stale", fsync_policy="off")
        stale.append([{"identifier": "old", "attributes": []}], [0])
        stale.close()
        old = wal_segments(tmp_path / "stale")[0]
        target = wal_dir / "wal-000000.log"
        target.write_bytes(old.read_bytes())
        preview = sweep_stale_wal(wal_dir, dry_run=True)
        assert target in preview and target.exists()
        removed = sweep_stale_wal(wal_dir)
        assert target in removed and not target.exists()


# -- recovery equivalence -----------------------------------------------------


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("scheme", ["CBS", "JS"])
    def test_bit_identical_export(self, scheme, tmp_path):
        profiles = _profiles(STREAM)
        durable = _resolver(scheme, wal_dir=tmp_path / "wal")
        _feed(durable, profiles)
        recovered, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert len(recovered) == STREAM
        assert report.upserts_replayed == STREAM
        for algorithm in ("CNP", "RcCNP"):
            assert list(recovered.candidate_pairs(algorithm)) == list(
                durable.candidate_pairs(algorithm)
            )

    def test_clean_clean(self, tmp_path):
        profiles = _profiles(STREAM)
        durable = _resolver(wal_dir=tmp_path / "wal", clean_clean=True)
        mirror = _resolver(clean_clean=True)
        for i in range(0, STREAM, BATCH):
            chunk = profiles[i : i + BATCH]
            sources = [(i + j) % 2 for j in range(len(chunk))]
            durable.add_batch(chunk, sources)
            mirror.add_batch(chunk, sources)
        recovered, _ = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert recovered.clean_clean
        assert list(recovered.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )

    def test_snapshot_plus_tail_replay(self, tmp_path):
        profiles = _profiles(STREAM)
        durable = _resolver(wal_dir=tmp_path / "wal")
        _feed(durable, profiles[:40])
        durable.compact()
        _feed(durable, profiles[40:])
        recovered, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert report.snapshot_profiles == 40
        assert report.upserts_replayed == STREAM - 40
        assert list(recovered.candidate_pairs("CNP")) == list(
            durable.candidate_pairs("CNP")
        )
        assert report.records_replayed == (STREAM - 40) // BATCH

    def test_threads_backend(self, tmp_path):
        execution = ExecutionConfig(parallel=2)
        profiles = _profiles(STREAM)
        durable = _resolver(wal_dir=tmp_path / "wal", execution=execution)
        _feed(durable, profiles)
        recovered, _ = IncrementalMetaBlocking.recover(
            tmp_path / "wal", execution=execution
        )
        mirror = _resolver()
        _feed(mirror, profiles)
        assert list(recovered.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )

    def test_recovered_resolver_keeps_logging(self, tmp_path):
        profiles = _profiles(STREAM)
        durable = _resolver(wal_dir=tmp_path / "wal")
        _feed(durable, profiles[:30])
        first, _ = IncrementalMetaBlocking.recover(tmp_path / "wal")
        _feed(first, profiles[30:])
        second, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        mirror = _resolver()
        _feed(mirror, profiles)
        assert len(second) == STREAM
        assert report.torn_tail is None
        assert list(second.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )


class TestRecoveryChainIntegrity:
    """The replay chain across torn, debris, and missing segments."""

    def test_resume_skips_record_free_debris_segments(self, tmp_path):
        # Double crash: segment 1 ends in a torn record, a first recovery
        # resumed into segment 2 but crashed before completing its first
        # append (zero intact records), a second recovery resumed into
        # segment 3 and acknowledged another batch. Replay must follow
        # the chain past the debris segment instead of stopping at the
        # seg-1 tear and silently dropping the acked seg-3 records.
        wal_dir = tmp_path / "wal"
        profiles = _profiles(3 * BATCH)
        durable = _resolver(wal_dir=wal_dir)
        _feed(durable, profiles[: 2 * BATCH])  # seqs 1-2 in segment 1
        durable.wal.close()
        (segment,) = wal_segments(wal_dir)
        with open(segment, "ab") as handle:
            handle.write(b"\x07\x00")  # crash mid-append: torn header
        (wal_dir / "wal-000002.log").write_bytes(b"\x40")  # debris
        resumed = WriteAheadLog(
            wal_dir, fsync_policy="off", next_seq=3, segment_index=3
        )
        resumed.append(
            [encode_profile(p) for p in profiles[2 * BATCH :]], [0] * BATCH
        )
        resumed.close()
        recovered, report = IncrementalMetaBlocking.recover(wal_dir)
        assert len(recovered) == 3 * BATCH
        assert report.torn_tail is None
        assert report.last_seq == 3
        assert any("torn" in warning for warning in report.warnings)
        mirror = _resolver()
        _feed(mirror, profiles)
        assert list(recovered.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )

    def test_sequence_gap_refuses_recovery(self, tmp_path):
        # A deleted middle segment is not crash debris — acked records
        # are gone wholesale and recovery must refuse, not silently
        # serve the prefix and re-issue the lost sequence numbers.
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir, fsync_policy="off", segment_bytes=1)
        for i in range(3):  # one record per segment at segment_bytes=1
            wal.append(
                [encode_profile(p) for p in _profiles(2, offset=2 * i)],
                [0, 0],
            )
        wal.close()
        wal_segments(wal_dir)[1].unlink()
        with pytest.raises(WalError, match="gap"):
            IncrementalMetaBlocking.recover(wal_dir)

    def test_unresumed_tear_refuses_recovery(self, tmp_path):
        # Segment 1's only record is torn, yet segment 2 exists — the
        # seq-1 record must have been acked for seq 2 to exist, so this
        # is acked-data loss, not a skippable tail.
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir, fsync_policy="off", segment_bytes=1)
        for i in range(2):
            wal.append(
                [encode_profile(p) for p in _profiles(2, offset=2 * i)],
                [0, 0],
            )
        wal.close()
        first = wal_segments(wal_dir)[0]
        with open(first, "r+b") as handle:
            handle.truncate(first.stat().st_size - 7)
        with pytest.raises(WalError, match="does not resume"):
            IncrementalMetaBlocking.recover(wal_dir)


# -- randomized kill points ---------------------------------------------------


@pytest.fixture(scope="module")
def canonical_wal(tmp_path_factory):
    """One durable ingest of the canonical stream, reused per kill point."""
    root = tmp_path_factory.mktemp("canonical")
    wal_dir = root / "wal"
    resolver = _resolver(wal_dir=wal_dir)
    _feed(resolver, _profiles(STREAM))
    resolver.wal.close()
    (segment,) = wal_segments(wal_dir)
    return wal_dir, segment.read_bytes()


_PREFIX_CACHE: dict = {}


def _expected_pairs(count: int) -> list:
    """CNP pairs of a fresh resolver fed the first ``count`` profiles."""
    if count not in _PREFIX_CACHE:
        mirror = _resolver()
        _feed(mirror, _profiles(count))
        _PREFIX_CACHE[count] = list(mirror.candidate_pairs("CNP"))
    return _PREFIX_CACHE[count]


class TestKillPoints:
    @settings(max_examples=30, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_truncation_recovers_exact_prefix(
        self, canonical_wal, tmp_path_factory, fraction
    ):
        wal_dir, blob = canonical_wal
        cut = int(fraction * len(blob))
        scratch = tmp_path_factory.mktemp("kill")
        killed = scratch / "wal"
        killed.mkdir()
        (killed / "resolver.json").write_bytes(
            (wal_dir / "resolver.json").read_bytes()
        )
        (killed / "wal-000001.log").write_bytes(blob[:cut])
        recovered, report = IncrementalMetaBlocking.recover(killed)
        count = len(recovered)
        assert count % BATCH == 0  # records replay whole batches or not at all
        assert count == report.upserts_replayed
        if cut < len(blob):
            assert count < STREAM
        # a mid-record cut is reported as a torn tail, never raised
        records, tear = read_segment(killed / "wal-000001.log")
        assert count == sum(len(r.profiles) for r in records)
        assert (report.torn_tail is not None) == (tear is not None)
        assert list(recovered.candidate_pairs("CNP")) == _expected_pairs(count)

    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=0.95))
    def test_truncation_then_continue_then_recover(
        self, canonical_wal, tmp_path_factory, fraction
    ):
        """After a torn tail, new writes land past it and recover cleanly."""
        wal_dir, blob = canonical_wal
        cut = int(fraction * len(blob))
        scratch = tmp_path_factory.mktemp("resume")
        killed = scratch / "wal"
        killed.mkdir()
        (killed / "resolver.json").write_bytes(
            (wal_dir / "resolver.json").read_bytes()
        )
        (killed / "wal-000001.log").write_bytes(blob[:cut])
        recovered, _ = IncrementalMetaBlocking.recover(killed)
        base = len(recovered)
        extra = _profiles(BATCH, offset=base)
        recovered.add_batch(extra)
        again, report = IncrementalMetaBlocking.recover(killed)
        assert len(again) == base + BATCH
        assert report.torn_tail is None  # the old tear is a known skip now
        mirror = _resolver()
        _feed(mirror, _profiles(base))
        mirror.add_batch(extra)
        assert list(again.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )


# -- injected WAL faults ------------------------------------------------------


class TestInjectedWalFaults:
    def test_torn_wal_tail_fault(self, tmp_path):
        resolver = _resolver(wal_dir=tmp_path / "wal")
        resolver.add_batch(_profiles(BATCH))
        with injected_faults(Fault(site="wal", op="torn_wal_tail", chunk=2)):
            with pytest.raises(WalError):
                resolver.add_batch(_profiles(BATCH, offset=BATCH))
        with pytest.raises(WalBroken):  # sticky: nothing acks after a tear
            resolver.add_batch(_profiles(BATCH, offset=2 * BATCH))
        recovered, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert len(recovered) == BATCH
        assert report.torn_tail is not None  # the half-written frame
        mirror = _resolver()
        mirror.add_batch(_profiles(BATCH))
        assert list(recovered.candidate_pairs("CNP")) == list(
            mirror.candidate_pairs("CNP")
        )

    def test_fsync_error_fault(self, tmp_path):
        resolver = _resolver(wal_dir=tmp_path / "wal", fsync_policy="batch")
        resolver.add_batch(_profiles(BATCH))
        with injected_faults(Fault(site="wal", op="fsync_error", chunk=2)):
            with pytest.raises(WalError):
                resolver.add_batch(_profiles(BATCH, offset=BATCH))
        with pytest.raises(WalBroken):
            resolver.add_batch(_profiles(BATCH, offset=2 * BATCH))
        # The frame hit the file before the failed fsync, so recovery may
        # include the unacked batch — a prefix of the *applied* order.
        recovered, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert len(recovered) in (BATCH, 2 * BATCH)
        assert report.torn_tail is None

    def test_fault_plan_via_environment(self, tmp_path):
        from repro.core.faults import FaultPlan

        plan = FaultPlan(
            (Fault(site="wal", op="torn_wal_tail", chunk=2),)
        ).to_json()
        script = textwrap.dedent(
            """
            import sys
            from repro.blocking import TokenBlocking
            from repro.core.wal import WalError
            from repro.datamodel.profiles import EntityProfile
            from repro.incremental import IncrementalMetaBlocking

            wal_dir = sys.argv[1]
            profiles = [
                EntityProfile.from_dict(f"p{i}", {"name": f"n{i % 4}"})
                for i in range(10)
            ]
            resolver = IncrementalMetaBlocking(
                TokenBlocking().keys_for, scheme="CBS", k=4,
                filtering_ratio=1.0, wal_dir=wal_dir,
            )
            resolver.add_batch(profiles[:5])
            try:
                resolver.add_batch(profiles[5:])
            except WalError:
                sys.exit(0)
            sys.exit(3)  # the env-injected tear did not fire
            """
        )
        env = dict(os.environ, REPRO_FAULTS=plan, PYTHONPATH=_child_pythonpath())
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "wal")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        recovered, report = IncrementalMetaBlocking.recover(tmp_path / "wal")
        assert len(recovered) == 5 and report.torn_tail is not None


# -- daemon recovery protocol -------------------------------------------------


class TestServerRecovery:
    def test_health_and_retry_through_recovery(self, tmp_path):
        wal_dir = tmp_path / "wal"
        seeded = _resolver(wal_dir=wal_dir)
        seeded.add_batch(_profiles(BATCH))
        seeded.wal.close()
        release = {"at": time.monotonic() + 0.4}

        def recovery():
            while time.monotonic() < release["at"]:
                time.sleep(0.01)
            return IncrementalMetaBlocking.recover(wal_dir)

        server = ResolverServer(
            recovery=recovery, path=str(tmp_path / "er.sock"), flush_size=2
        )
        statuses = []
        with BackgroundServer(server):
            client = ResolverClient(
                str(tmp_path / "er.sock"), retry_backoff=0.02
            )
            statuses.append(client.health()["status"])
            entity_id, _ = client.upsert(_profiles(1, offset=BATCH)[0])
            health = client.health()
            statuses.append(health["status"])
            assert entity_id == BATCH  # recovery state came first
            assert health["profiles"] == BATCH + 1
            assert health["recovery"]["upserts_replayed"] == BATCH
            assert "wal" in health
            stats = client.stats()
            assert stats["status"] == "ready"
            assert stats["wal"]["last_seq"] >= 2
            client.close()
        assert statuses[0] == "recovering" and statuses[-1] == "ready"

    def test_failed_recovery_is_observable(self, tmp_path):
        def recovery():
            raise RuntimeError("disk on fire")

        server = ResolverServer(
            recovery=recovery, path=str(tmp_path / "er.sock")
        )
        with BackgroundServer(server):
            client = ResolverClient(
                str(tmp_path / "er.sock"),
                request_retries=1,
                retry_backoff=0.01,
            )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                health = client.health()
                if health["status"] == "failed":
                    break
                time.sleep(0.02)
            assert health["status"] == "failed"
            assert "disk on fire" in health["error"]
            with pytest.raises(ClientError, match="disk on fire"):
                client.ping()
            client.close()

    def test_resolver_and_recovery_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            ResolverServer()
        with pytest.raises(ValueError, match="exactly one"):
            ResolverServer(_resolver(), recovery=lambda: None)


class TestClientBackoff:
    def test_backoff_resets_after_reconnect(self, tmp_path):
        client = ResolverClient(
            str(tmp_path / "nothing.sock"),
            connect_retries=2,
            retry_backoff=0.01,
        )
        with pytest.raises(ClientError):
            client.connect()
        assert client._connect_failures == 3
        server = ResolverServer(
            _resolver(), path=str(tmp_path / "nothing.sock")
        )
        with BackgroundServer(server):
            client.connect()
            assert client._connect_failures == 0
            client.close()


# -- the crash soak -----------------------------------------------------------


_DAEMON_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.incremental import IncrementalMetaBlocking
    from repro.serve.server import ResolverServer

    wal_dir, socket_path = sys.argv[1], sys.argv[2]

    def recovery():
        return IncrementalMetaBlocking.recover(
            wal_dir, blocking="token", scheme="CBS", k=4,
            filtering_ratio=1.0, fsync_policy="batch",
        )

    ResolverServer(
        recovery=recovery, path=socket_path,
        flush_size=4, flush_interval=0.005,
    ).run()
    """
)


def _wait_ready(address, timeout=30.0) -> None:
    client = ResolverClient(address, retry_backoff=0.02, connect_retries=20)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.health()["status"] == "ready":
                client.close()
                return
        except ClientError:
            time.sleep(0.05)
    client.close()
    raise AssertionError("daemon never reached ready")


class TestCrashSoak:
    def test_sigkill_loses_no_acked_upsert(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        socket_path = str(tmp_path / "soak.sock")
        stream = _profiles(400)
        acked = 0
        kill_after = [0.45, 0.25, 0.35]  # seconds of ingest per round
        for round_index, delay in enumerate(kill_after):
            proc = subprocess.Popen(
                [sys.executable, "-c", _DAEMON_SCRIPT, wal_dir, socket_path],
                env=dict(os.environ, PYTHONPATH=_child_pythonpath()),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                _wait_ready(socket_path)
                client = ResolverClient(
                    socket_path, retry_backoff=0.01, request_retries=2
                )
                kill_at = time.monotonic() + delay
                sent = acked
                while sent < len(stream):
                    if time.monotonic() >= kill_at:
                        proc.send_signal(signal.SIGKILL)
                    try:
                        client.upsert(stream[sent])
                    except ClientError:
                        break  # the daemon died mid-request: not acked
                    sent += 1
                    acked = sent
                client.close()
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=30)
            recovered, report = IncrementalMetaBlocking.recover(wal_dir)
            count = len(recovered)
            # every acknowledged upsert survived; at most one in-flight
            # convoy beyond the last ack may also have landed
            assert count >= acked, (
                f"round {round_index}: acked {acked} but recovered {count}"
            )
            assert count <= sent + 4
            mirror = _resolver()
            if count:
                mirror.add_batch(stream[:count])
            assert list(recovered.candidate_pairs("CNP")) == list(
                mirror.candidate_pairs("CNP")
            ), f"round {round_index}: recovered state diverged at {count}"
            acked = count  # the next round continues from recovered state
        assert acked > 0  # the soak must have made progress


# -- CLI ----------------------------------------------------------------------


class TestDurabilityCli:
    def test_recover_command(self, tmp_path, capsys):
        from repro.cli import main

        wal_dir = str(tmp_path / "wal")
        resolver = _resolver(wal_dir=wal_dir)
        _feed(resolver, _profiles(20))
        resolver.wal.close()
        export = str(tmp_path / "pairs.csv")
        assert main(["recover", "--wal-dir", wal_dir, "--export", export]) == 0
        out = capsys.readouterr().out
        assert "20 upserts" in out and "candidate pairs" in out
        header = open(export, encoding="utf-8").readline().strip()
        assert header == "left_id,right_id"
        assert main(["recover", "--wal-dir", wal_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upserts_replayed"] == 20

    def test_recover_compact_truncates(self, tmp_path, capsys):
        from repro.cli import main

        wal_dir = tmp_path / "wal"
        resolver = _resolver(wal_dir=wal_dir)
        _feed(resolver, _profiles(20))
        resolver.wal.close()
        assert main(["recover", "--wal-dir", str(wal_dir), "--compact"]) == 0
        capsys.readouterr()
        # the records are now covered by the snapshot: replay is empty
        assert main(["recover", "--wal-dir", str(wal_dir)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_clean_wal_dir(self, tmp_path, capsys):
        from repro.cli import main

        wal_dir = tmp_path / "wal"
        resolver = _resolver(wal_dir=wal_dir)
        _feed(resolver, _profiles(10))
        resolver.wal.close()
        # a half-written snapshot temp left by a crashed compaction
        (wal_dir / "snapshots").mkdir(exist_ok=True)
        junk = wal_dir / "snapshots" / "epoch-000009.tmp-99999999"
        junk.mkdir()
        assert main(
            ["clean", "--wal-dir", str(wal_dir), "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and junk.exists()
        assert main(["clean", "--wal-dir", str(wal_dir)]) == 0
        assert not junk.exists()

    def test_serve_rejects_conflicting_dirs(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "serve",
                "--wal-dir", str(tmp_path / "wal"),
                "--compact-dir", str(tmp_path / "snaps"),
            ]
        )
        assert rc == 2
