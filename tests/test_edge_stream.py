"""Tests for the columnar edge stream (EdgeBatch and the batched pruning).

The load-bearing guarantee: for every pruning algorithm, weighting backend
and chunk size, the batched ``prune`` path retains *exactly* the same
comparisons as the per-edge ``prune_per_edge`` shim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_stream import (
    DEFAULT_CHUNK_SIZE,
    EdgeBatch,
    NodeGroup,
    TopKEdgeBuffer,
    directed_pair_keys,
    keys_contain,
    neighborhood_mean,
    select_topk_edges,
    select_topk_neighbors,
    topk_per_segment,
)
from repro.core.edge_weighting import (
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.core.execution import ExecutionConfig
from repro.core.pipeline import meta_block
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.utils.topk import TopKHeap

BACKENDS = {
    "optimized": OptimizedEdgeWeighting,
    "original": OriginalEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}


class TestEdgeBatch:
    def test_from_edges_round_trip(self):
        edges = [(0, 3, 0.5), (1, 2, 0.25), (2, 4, 1.0)]
        batch = EdgeBatch.from_edges(edges)
        assert len(batch) == 3
        assert list(batch.iter_edges()) == edges
        assert batch.pairs() == [(0, 3), (1, 2), (2, 4)]

    def test_empty(self):
        batch = EdgeBatch.empty()
        assert len(batch) == 0
        assert list(batch.iter_edges()) == []
        assert EdgeBatch.from_edges([]).pairs() == []

    def test_concatenate(self):
        first = EdgeBatch.from_edges([(0, 1, 0.5)])
        second = EdgeBatch.from_edges([(2, 3, 0.25), (1, 4, 0.75)])
        merged = EdgeBatch.concatenate([first, second])
        assert list(merged.iter_edges()) == [
            (0, 1, 0.5),
            (2, 3, 0.25),
            (1, 4, 0.75),
        ]
        assert len(EdgeBatch.concatenate([])) == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EdgeBatch(
                np.array([0, 1]), np.array([2]), np.array([0.5, 0.25])
            )


class TestTopKSelection:
    """The argpartition helpers replicate TopKHeap's deterministic ties."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 17, 200])
    def test_select_topk_neighbors_matches_heap(self, k):
        rng = np.random.default_rng(k)
        # Coarse weights force plenty of ties at the boundary.
        weights = rng.integers(0, 5, size=60).astype(np.float64) / 4.0
        neighbors = rng.permutation(60).astype(np.int64)
        heap: TopKHeap[int] = TopKHeap(k)
        for other, weight in zip(neighbors.tolist(), weights.tolist()):
            heap.push(weight, other)
        selected = select_topk_neighbors(weights, neighbors, k)
        assert set(neighbors[selected].tolist()) == heap.items()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_select_topk_neighbors_property(self, data):
        count = data.draw(st.integers(min_value=0, max_value=300))
        grid = st.sampled_from([0.0, 0.125, 0.5, 0.75, 2.0])
        if data.draw(st.booleans()):
            weights = np.full(count, data.draw(grid), dtype=np.float64)
        else:
            weights = np.array(
                data.draw(st.lists(grid, min_size=count, max_size=count)),
                dtype=np.float64,
            )
        neighbors = np.array(
            data.draw(st.permutations(range(count))), dtype=np.int64
        )
        k = data.draw(
            st.one_of(
                st.just(max(count - 1, 0)),
                st.integers(min_value=0, max_value=count + 2),
            )
        )
        heap: TopKHeap[int] = TopKHeap(k)
        for other, weight in zip(neighbors.tolist(), weights.tolist()):
            heap.push(weight, other)
        selected = select_topk_neighbors(weights, neighbors, k)
        assert len(set(selected.tolist())) == selected.size == min(k, count)
        assert set(neighbors[selected].tolist()) == heap.items()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_topk_per_segment_property(self, data):
        """Segments in random (not ascending) neighbour order, tied weights."""
        segments = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, 79), min_size=1, max_size=30, unique=True
                ),
                min_size=1,
                max_size=6,
            )
        )
        grid = st.sampled_from([0.25, 0.5, 1.0, 2.0])
        weights = [
            data.draw(st.lists(grid, min_size=len(run), max_size=len(run)))
            for run in segments
        ]
        longest = max(len(run) for run in segments)
        k = data.draw(st.integers(min_value=0, max_value=longest + 2))
        offsets = np.cumsum([0] + [len(run) for run in segments])
        group = NodeGroup(
            np.arange(len(segments), dtype=np.int64),
            offsets.astype(np.int64),
            np.array([n for run in segments for n in run], dtype=np.int64),
            np.array([w for run in weights for w in run], dtype=np.float64),
        )
        selected, chosen = topk_per_segment(group, k)
        assert chosen.tolist() == sorted(chosen.tolist())
        for position, (run, run_weights) in enumerate(zip(segments, weights)):
            heap: TopKHeap[int] = TopKHeap(k)
            for other, weight in zip(run, run_weights):
                heap.push(weight, other)
            picked = group.neighbors[selected[chosen == position]].tolist()
            assert picked == sorted(heap.items())

    @pytest.mark.parametrize("k", [1, 3, 10, 64])
    def test_select_topk_edges_matches_heap(self, k):
        rng = np.random.default_rng(100 + k)
        count = 80
        weights = rng.integers(0, 4, size=count).astype(np.float64)
        sources = rng.integers(0, 20, size=count).astype(np.int64)
        targets = sources + 1 + rng.integers(0, 20, size=count).astype(np.int64)
        heap: TopKHeap[tuple[int, int]] = TopKHeap(k)
        for s, t, w in zip(
            sources.tolist(), targets.tolist(), weights.tolist()
        ):
            heap.push(w, (s, t))
        selected = select_topk_edges(weights, sources, targets, k)
        got = set(zip(sources[selected].tolist(), targets[selected].tolist()))
        assert got == heap.items()

    def test_zero_k(self):
        weights = np.array([1.0, 2.0])
        neighbors = np.array([3, 4], dtype=np.int64)
        assert select_topk_neighbors(weights, neighbors, 0).size == 0

    @pytest.mark.parametrize("chunk", [1, 3, 50])
    def test_buffer_matches_one_shot(self, chunk):
        rng = np.random.default_rng(7)
        count = 120
        weights = rng.integers(0, 6, size=count).astype(np.float64)
        sources = np.arange(count, dtype=np.int64)
        targets = sources + 1 + rng.integers(0, 9, size=count).astype(np.int64)
        k = 25
        buffer = TopKEdgeBuffer(k)
        for start in range(0, count, chunk):
            stop = start + chunk
            buffer.push(
                EdgeBatch(
                    sources[start:stop], targets[start:stop], weights[start:stop]
                )
            )
        selected = select_topk_edges(weights, sources, targets, k)
        expected = sorted(
            zip(sources[selected].tolist(), targets[selected].tolist())
        )
        assert buffer.pairs() == expected

    def test_buffer_zero_k(self):
        buffer = TopKEdgeBuffer(0)
        buffer.push(EdgeBatch.from_edges([(0, 1, 1.0)]))
        assert buffer.pairs() == []


class TestHelpers:
    def test_neighborhood_mean(self):
        assert neighborhood_mean(np.empty(0)) == 0.0
        assert neighborhood_mean(np.array([1.0, 2.0, 3.0])) == 2.0

    def test_directed_pair_membership(self):
        num_entities = 10
        keys = np.sort(
            directed_pair_keys(
                np.array([2, 2, 5], dtype=np.int64),
                np.array([3, 7, 2], dtype=np.int64),
                num_entities,
            )
        )
        probes_left = np.array([2, 2, 5, 3], dtype=np.int64)
        probes_right = np.array([3, 5, 2, 2], dtype=np.int64)
        got = keys_contain(
            keys, directed_pair_keys(probes_left, probes_right, num_entities)
        )
        assert got.tolist() == [True, False, True, False]

    def test_keys_contain_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert keys_contain(empty, np.array([1], dtype=np.int64)).tolist() == [
            False
        ]
        assert keys_contain(np.array([1], dtype=np.int64), empty).size == 0


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestBatchStream:
    """iter_edge_batches is the same edge stream as iter_edges, chunked."""

    def test_concatenation_equals_iter_edges(self, example_blocks, backend):
        weighting = BACKENDS[backend](example_blocks, "JS")
        per_edge = list(
            BACKENDS[backend](example_blocks, "JS").iter_edges()
        )
        batched = [
            edge
            for batch in weighting.iter_edge_batches()
            for edge in batch.iter_edges()
        ]
        assert batched == per_edge

    @pytest.mark.parametrize("chunk_size", [1, 3, DEFAULT_CHUNK_SIZE])
    def test_chunk_size_only_changes_boundaries(
        self, example_blocks, backend, chunk_size
    ):
        weighting = BACKENDS[backend](example_blocks, "JS")
        reference = list(BACKENDS[backend](example_blocks, "JS").iter_edges())
        batches = list(weighting.iter_edge_batches(chunk_size))
        assert [e for b in batches for e in b.iter_edges()] == reference
        # Every batch except the last respects the requested chunk size at
        # the generic adapter granularity (the vectorized backend packs whole
        # nodes, so batches may exceed chunk_size by one node's edges).
        assert sum(len(b) for b in batches) == len(reference)

    def test_canonical_ids(self, tiny_dirty_blocks, backend):
        weighting = BACKENDS[backend](
            tiny_dirty_blocks.sorted_by_cardinality(), "CBS"
        )
        for batch in weighting.iter_edge_batches(64):
            assert (batch.sources < batch.targets).all()

    def test_neighborhood_arrays_match_neighborhood(
        self, example_blocks, backend
    ):
        weighting = BACKENDS[backend](example_blocks, "JS")
        for entity in weighting.nodes():
            neighborhood = weighting.neighborhood(entity)
            neighbors, weights = weighting.neighborhood_arrays(entity)
            assert neighbors.tolist() == [n for n, _ in neighborhood]
            assert weights.tolist() == [w for _, w in neighborhood]

    def test_emitted_arrays_cover_each_edge_once(self, example_blocks, backend):
        weighting = BACKENDS[backend](example_blocks, "JS")
        emitted = []
        for entity in weighting.nodes():
            neighbors, _ = weighting.emitted_arrays(entity)
            emitted.extend(
                (min(entity, other), max(entity, other))
                for other in neighbors.tolist()
            )
        expected = sorted((s, t) for s, t, _ in weighting.iter_edges())
        assert sorted(emitted) == expected


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name", sorted(PRUNING_ALGORITHMS))
class TestBatchedMatchesPerEdge:
    """Batched prune() == per-edge prune_per_edge(), exactly."""

    def test_paper_example(self, example_blocks, backend, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        batched = algorithm.prune(BACKENDS[backend](example_blocks, "JS"))
        shim = algorithm.prune_per_edge(BACKENDS[backend](example_blocks, "JS"))
        assert batched.pairs == shim.pairs

    def test_dirty_synthetic_ejs(self, tiny_dirty_blocks, backend, name):
        blocks = tiny_dirty_blocks.sorted_by_cardinality()
        algorithm = PRUNING_ALGORITHMS[name]()
        batched = algorithm.prune(BACKENDS[backend](blocks, "EJS"))
        shim = algorithm.prune_per_edge(BACKENDS[backend](blocks, "EJS"))
        assert batched.pairs == shim.pairs

    def test_tiny_chunks(self, example_blocks, backend, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        algorithm.chunk_size = 2  # force many chunk boundaries
        batched = algorithm.prune(BACKENDS[backend](example_blocks, "JS"))
        shim = algorithm.prune_per_edge(BACKENDS[backend](example_blocks, "JS"))
        assert batched.pairs == shim.pairs


class TestPipelineChunkSize:
    def test_chunk_size_invariance(self, small_dirty_blocks):
        for algorithm in ("CEP", "WEP", "RcWNP"):
            default = meta_block(
                small_dirty_blocks, scheme="JS", algorithm=algorithm
            )
            tiny = meta_block(
                small_dirty_blocks,
                scheme="JS",
                algorithm=algorithm,
                execution=ExecutionConfig(chunk_size=5),
            )
            assert tiny.comparisons.pairs == default.comparisons.pairs

    def test_chunk_size_validated(self, small_dirty_blocks):
        with pytest.raises(ValueError, match="chunk_size"):
            meta_block(
                small_dirty_blocks, execution=ExecutionConfig(chunk_size=0)
            )
