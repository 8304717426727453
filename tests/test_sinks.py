"""Unit tests for the comparison sinks and the lazy ComparisonView.

The load-bearing property is *bit-identity*: whatever route the retained
comparisons take — RAM batches, spilled ``.npy`` shards memory-mapped back,
or a bounded hand-off queue — the observed pair sequence must equal the
eager list element for element. Hypothesis drives that round-trip over
arbitrary pair sequences and shard sizes.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel.blocks import ComparisonCollection
from repro.datamodel.sinks import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    BoundedGeneratorSink,
    ComparisonView,
    InMemorySink,
    SinkClosed,
    SpillSink,
    load_spilled_view,
    stream_pruned,
)

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(501, 1000)), max_size=400
)


def fill(sink, pairs, chunk=7):
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        sink.append(
            np.array([p[0] for p in block], dtype=np.int64),
            np.array([p[1] for p in block], dtype=np.int64),
        )


# -- InMemorySink -------------------------------------------------------------


class TestInMemorySink:
    def test_round_trip_preserves_order(self):
        pairs = [(0, 5), (2, 3), (0, 5), (1, 4)]
        sink = InMemorySink()
        fill(sink, pairs, chunk=3)
        view = sink.finalize(6)
        assert isinstance(view, ComparisonView)
        assert list(view) == pairs
        assert view.pairs == pairs
        assert len(view) == 4
        assert view.cardinality == 4
        assert view.spill_manifest is None

    def test_view_is_a_comparison_collection(self):
        sink = InMemorySink()
        sink.append(np.array([0, 1]), np.array([2, 3]))
        view = sink.finalize(4)
        assert isinstance(view, ComparisonCollection)
        assert view.num_entities == 4

    def test_append_after_finalize_raises(self):
        sink = InMemorySink()
        sink.finalize(0)
        with pytest.raises(RuntimeError, match="finalized or aborted"):
            sink.append(np.array([0]), np.array([1]))

    def test_mismatched_arrays_rejected(self):
        sink = InMemorySink()
        with pytest.raises(ValueError, match="equal-length"):
            sink.append(np.array([0, 1]), np.array([2]))

    def test_append_pairs(self):
        sink = InMemorySink()
        sink.append_pairs([(1, 2), (3, 4)])
        sink.append_pairs([])
        assert list(sink.finalize(5)) == [(1, 2), (3, 4)]


# -- ComparisonView protocol --------------------------------------------------


class TestComparisonView:
    def make_view(self, pairs, spill_dir=None, shard_pairs=3):
        if spill_dir is None:
            sink = InMemorySink()
        else:
            sink = SpillSink(spill_dir=spill_dir, shard_pairs=shard_pairs)
        fill(sink, pairs, chunk=5)
        return sink.finalize(2000)

    @pytest.mark.parametrize("spilled", [False, True])
    def test_indexing_and_slicing(self, tmp_path, spilled):
        pairs = [(i, i + 600) for i in range(25)]
        view = self.make_view(pairs, tmp_path if spilled else None)
        assert view[0] == pairs[0]
        assert view[24] == pairs[24]
        assert view[-1] == pairs[-1]
        assert view[3:9] == pairs[3:9]
        assert view[::5] == pairs[::5]
        with pytest.raises(IndexError):
            view[25]

    @pytest.mark.parametrize("spilled", [False, True])
    def test_stream_rechunks(self, tmp_path, spilled):
        pairs = [(i, i + 600) for i in range(23)]
        view = self.make_view(pairs, tmp_path if spilled else None)
        batches = list(view.stream(batch_size=4))
        assert all(s.size <= 4 for s, _ in batches)
        streamed = [
            (int(l), int(r))
            for s, t in batches
            for l, r in zip(s.tolist(), t.tolist())
        ]
        assert streamed == pairs

    def test_stream_rejects_bad_batch_size(self):
        view = self.make_view([(0, 601)])
        with pytest.raises(ValueError, match="batch_size"):
            list(view.stream(batch_size=0))

    def test_set_helpers_stream(self, tmp_path):
        pairs = [(1, 700), (2, 800), (1, 700)]
        view = self.make_view(pairs, tmp_path, shard_pairs=2)
        assert view.distinct_comparisons() == {(1, 700), (2, 800)}
        assert view.entity_ids() == {1, 2, 700, 800}

    def test_empty_view(self):
        view = InMemorySink().finalize(10)
        assert len(view) == 0
        assert list(view) == []
        assert view.pairs == []
        assert view[0:3] == []


# -- SpillSink ----------------------------------------------------------------


class TestSpillSink:
    def test_round_trip_bit_identical(self, tmp_path):
        pairs = [(i % 50, 600 + (i * 7) % 50) for i in range(1000)]
        sink = SpillSink(spill_dir=tmp_path, shard_pairs=64)
        fill(sink, pairs, chunk=13)
        view = sink.finalize(700)
        assert list(view) == pairs
        assert view.pairs == pairs
        assert len(view) == 1000

    def test_shards_bounded_and_manifest_consistent(self, tmp_path):
        pairs = [(i, i + 600) for i in range(200)]
        sink = SpillSink(spill_dir=tmp_path, shard_pairs=32)
        fill(sink, pairs, chunk=50)
        view = sink.finalize(900)
        manifest = json.loads(view.spill_manifest.read_text(encoding="utf-8"))
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["total_pairs"] == 200
        assert manifest["num_entities"] == 900
        for entry in manifest["shards"]:
            assert entry["pairs"] <= 32
            shard = np.load(sink.directory / entry["file"])
            assert shard.shape == (2, entry["pairs"])
            assert shard.dtype == np.int64
        assert sum(e["pairs"] for e in manifest["shards"]) == 200

    def test_memory_budget_sets_shard_pairs(self, tmp_path):
        sink = SpillSink(spill_dir=tmp_path, memory_budget=3200)
        assert sink.shard_pairs == 3200 // 32
        sink.abort()

    def test_invalid_sizing_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="memory_budget"):
            SpillSink(spill_dir=tmp_path, memory_budget=0)
        with pytest.raises(ValueError, match="shard_pairs"):
            SpillSink(spill_dir=tmp_path, shard_pairs=0)

    def test_abort_removes_run_directory(self, spill_leak_check):
        sink = SpillSink(spill_dir=spill_leak_check, shard_pairs=4)
        fill(sink, [(i, i + 600) for i in range(20)])
        assert sink.directory.exists()
        sink.abort()
        assert not sink.directory.exists()
        sink.abort()  # idempotent

    def test_concurrent_sinks_do_not_collide(self, tmp_path):
        first = SpillSink(spill_dir=tmp_path)
        second = SpillSink(spill_dir=tmp_path)
        assert first.directory != second.directory
        first.abort()
        second.abort()

    def test_load_spilled_view_reopens(self, tmp_path):
        pairs = [(i, i + 600) for i in range(77)]
        sink = SpillSink(spill_dir=tmp_path, shard_pairs=16)
        fill(sink, pairs)
        view = sink.finalize(800)
        reopened = load_spilled_view(view.spill_manifest)
        assert list(reopened) == pairs
        assert reopened.num_entities == 800
        reopened.release()
        assert not sink.directory.exists()

    def test_load_rejects_unknown_version(self, tmp_path):
        run = tmp_path / "run-bogus"
        run.mkdir()
        (run / MANIFEST_NAME).write_text(
            json.dumps({"version": 999, "num_entities": 0, "shards": []})
        )
        with pytest.raises(ValueError, match="manifest version"):
            load_spilled_view(run / MANIFEST_NAME)

    def test_adopt_shard_preserves_submission_order(self, tmp_path):
        sink = SpillSink(spill_dir=tmp_path, shard_pairs=1000)
        sink.append(np.array([1]), np.array([601]))
        name, crc = SpillSink.write_shard(
            sink.directory, np.array([2, 3]), np.array([602, 603])
        )
        sink.adopt_shard(name, 2, checksum=crc)
        sink.append(np.array([4]), np.array([604]))
        view = sink.finalize(700)
        assert list(view) == [(1, 601), (2, 602), (3, 603), (4, 604)]

    def test_adopt_missing_shard_raises(self, tmp_path):
        sink = SpillSink(spill_dir=tmp_path)
        with pytest.raises(FileNotFoundError):
            sink.adopt_shard("no-such-shard.npy", 3)
        sink.abort()

    def test_ephemeral_directory_removed_with_view(self):
        sink = SpillSink(shard_pairs=4)
        directory = sink.directory
        fill(sink, [(i, i + 600) for i in range(10)])
        view = sink.finalize(700)
        assert list(view) == [(i, i + 600) for i in range(10)]
        view.release()
        assert not directory.exists()

    @settings(max_examples=40, deadline=None)
    @given(pairs=pairs_strategy, shard_pairs=st.integers(1, 64))
    def test_property_spill_round_trip(self, tmp_path_factory, pairs, shard_pairs):
        directory = tmp_path_factory.mktemp("prop-spill")
        eager = InMemorySink()
        spilled = SpillSink(spill_dir=directory, shard_pairs=shard_pairs)
        fill(eager, pairs, chunk=9)
        fill(spilled, pairs, chunk=9)
        eager_view = eager.finalize(1100)
        spilled_view = spilled.finalize(1100)
        assert list(spilled_view) == list(eager_view) == pairs
        assert spilled_view[: len(pairs)] == pairs
        spilled_view.release()


# -- BoundedGeneratorSink / stream_pruned -------------------------------------


class TestBoundedGeneratorSink:
    def test_pipelined_hand_off(self):
        pairs = [(i, i + 600) for i in range(50)]

        def produce(sink):
            fill(sink, pairs, chunk=8)
            return sink.finalize(700)

        streamed = [
            (int(l), int(r))
            for s, t in stream_pruned(produce, max_pending=2)
            for l, r in zip(s.tolist(), t.tolist())
        ]
        assert streamed == pairs

    def test_back_pressure_bounds_queue(self):
        sink = BoundedGeneratorSink(max_pending=1)
        started = threading.Event()

        def produce():
            started.set()
            fill(sink, [(i, i + 600) for i in range(30)], chunk=1)
            sink.finalize(700)

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        started.wait(timeout=5)
        drained = sum(1 for _ in sink.batches())
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert drained == 30
        assert sink.pairs_seen == 30

    def test_early_close_stops_producer(self):
        failure: list[BaseException] = []

        def produce(sink):
            try:
                fill(sink, [(i, i + 600) for i in range(500)], chunk=1)
                sink.finalize(700)
            except SinkClosed as error:
                failure.append(error)
                raise

        stream = stream_pruned(produce, max_pending=1)
        next(stream)
        stream.close()
        assert failure and isinstance(failure[0], SinkClosed)

    def test_producer_exception_reraised(self):
        def produce(sink):
            sink.append(np.array([0]), np.array([600]))
            raise RuntimeError("boom mid-prune")

        with pytest.raises(RuntimeError, match="boom mid-prune"):
            list(stream_pruned(produce))

    def test_finalize_counts_only(self):
        sink = BoundedGeneratorSink()
        consumed = []
        thread = threading.Thread(
            target=lambda: consumed.extend(sink.batches()), daemon=True
        )
        thread.start()
        sink.append(np.array([1, 2]), np.array([601, 602]))
        view = sink.finalize(700)
        thread.join(timeout=5)
        assert len(view) == 2
        assert view.pairs == []  # pairs flowed to the consumer, not the view
        assert len(consumed) == 1

    def test_abort_with_full_queue_releases_consumer(self):
        # Regression: a producer that aborts against a *full* queue cannot
        # enqueue its end-of-stream marker; the consumer used to block on
        # an uncancellable get() forever.
        sink = BoundedGeneratorSink(max_pending=1)
        sink.append(np.array([1]), np.array([601]))  # queue now full
        sink.abort()  # put_nowait(_DONE) fails silently

        drained: list = []

        def consume():
            drained.extend(sink.batches())

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "consumer deadlocked after abort"
        assert len(drained) == 1  # the buffered batch still drains

    def test_invalid_max_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            BoundedGeneratorSink(max_pending=0)
