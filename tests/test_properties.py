"""Property-based tests (hypothesis) for the core invariants.

Strategy: generate random unilateral and bilateral block collections, then
assert the algebraic properties the paper's algorithms rely on —
backend equivalence, redundancy-freedom, subset relations, monotonicity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockprocessing.comparison_propagation import ComparisonPropagation
from repro.blockprocessing.entity_index import EntityIndex
from repro.core.block_filtering import BlockFiltering
from repro.core.edge_weighting import OptimizedEdgeWeighting, OriginalEdgeWeighting
from repro.core.graph import blocking_graph_stats
from repro.core.parallel import ParallelMetaBlockingExecutor
from repro.core.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    RedefinedCardinalityNodePruning,
    RedefinedWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.core.weights import WEIGHTING_SCHEMES
from repro.datamodel.blocks import Block, BlockCollection
from repro.datamodel.sinks import SpillSink
from repro.utils.topk import TopKHeap
from repro.utils.unionfind import UnionFind

NUM_ENTITIES = 14
SPLIT = 7  # bilateral collections: ids 0-6 vs 7-13


@st.composite
def unilateral_collections(draw) -> BlockCollection:
    num_blocks = draw(st.integers(min_value=1, max_value=10))
    blocks = []
    for index in range(num_blocks):
        members = draw(
            st.sets(
                st.integers(min_value=0, max_value=NUM_ENTITIES - 1),
                min_size=2,
                max_size=6,
            )
        )
        blocks.append(Block(f"b{index}", sorted(members)))
    return BlockCollection(blocks, NUM_ENTITIES)


@st.composite
def bilateral_collections(draw) -> BlockCollection:
    num_blocks = draw(st.integers(min_value=1, max_value=8))
    blocks = []
    for index in range(num_blocks):
        side1 = draw(
            st.sets(st.integers(min_value=0, max_value=SPLIT - 1), min_size=1, max_size=4)
        )
        side2 = draw(
            st.sets(
                st.integers(min_value=SPLIT, max_value=NUM_ENTITIES - 1),
                min_size=1,
                max_size=4,
            )
        )
        blocks.append(Block(f"b{index}", sorted(side1), sorted(side2)))
    return BlockCollection(blocks, NUM_ENTITIES)


any_collections = st.one_of(unilateral_collections(), bilateral_collections())
scheme_names = st.sampled_from(sorted(WEIGHTING_SCHEMES))


class TestBackendEquivalence:
    @given(blocks=any_collections, scheme=scheme_names)
    @settings(max_examples=60, deadline=None)
    def test_same_weighted_graph(self, blocks: BlockCollection, scheme: str):
        ordered = blocks.sorted_by_cardinality()
        optimized = {
            (left, right): weight
            for left, right, weight in OptimizedEdgeWeighting(
                ordered, scheme
            ).iter_edges()
        }
        original = {
            (left, right): weight
            for left, right, weight in OriginalEdgeWeighting(
                ordered, scheme
            ).iter_edges()
        }
        assert optimized.keys() == original.keys()
        for edge, weight in optimized.items():
            assert weight == pytest.approx(original[edge], abs=1e-9)

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_graph_stats_match_distinct_comparisons(self, blocks):
        stats = blocking_graph_stats(blocks)
        assert stats.size == len(blocks.distinct_comparisons())
        assert stats.order == len(blocks.entity_ids())


class TestWeightInvariants:
    @given(blocks=any_collections, scheme=scheme_names)
    @settings(max_examples=60, deadline=None)
    def test_weights_non_negative_and_symmetric_graph(self, blocks, scheme):
        weighting = OptimizedEdgeWeighting(blocks, scheme)
        edges = {}
        for left, right, weight in weighting.iter_edges():
            assert left < right
            assert weight >= 0.0
            assert (left, right) not in edges  # each edge exactly once
            edges[(left, right)] = weight

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_js_weights_bounded_by_one(self, blocks):
        weighting = OptimizedEdgeWeighting(blocks, "JS")
        for _, _, weight in weighting.iter_edges():
            assert 0.0 < weight <= 1.0


class TestPruningInvariants:
    @given(blocks=any_collections, scheme=scheme_names)
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_subset_of_redefined(self, blocks, scheme):
        weighting = OptimizedEdgeWeighting(blocks, scheme)
        redefined_cnp = RedefinedCardinalityNodePruning().prune(weighting)
        reciprocal_cnp = ReciprocalCardinalityNodePruning().prune(weighting)
        assert (
            reciprocal_cnp.distinct_comparisons()
            <= redefined_cnp.distinct_comparisons()
        )
        redefined_wnp = RedefinedWeightedNodePruning().prune(weighting)
        reciprocal_wnp = ReciprocalWeightedNodePruning().prune(weighting)
        assert (
            reciprocal_wnp.distinct_comparisons()
            <= redefined_wnp.distinct_comparisons()
        )

    @given(blocks=any_collections, scheme=scheme_names)
    @settings(max_examples=40, deadline=None)
    def test_redefined_equals_original_distinct_pairs(self, blocks, scheme):
        weighting = OptimizedEdgeWeighting(blocks, scheme)
        assert (
            RedefinedWeightedNodePruning().prune(weighting).distinct_comparisons()
            == WeightedNodePruning().prune(weighting).distinct_comparisons()
        )
        assert (
            RedefinedCardinalityNodePruning(k=2)
            .prune(weighting)
            .distinct_comparisons()
            == CardinalityNodePruning(k=2).prune(weighting).distinct_comparisons()
        )

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_redefined_and_edge_centric_emit_no_redundancy(self, blocks):
        weighting = OptimizedEdgeWeighting(blocks, "JS")
        for algorithm in (
            WeightedEdgePruning(),
            CardinalityEdgePruning(),
            RedefinedCardinalityNodePruning(),
            RedefinedWeightedNodePruning(),
            ReciprocalCardinalityNodePruning(),
            ReciprocalWeightedNodePruning(),
        ):
            pruned = algorithm.prune(weighting)
            assert pruned.cardinality == len(pruned.distinct_comparisons())

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_pruned_edges_are_graph_edges(self, blocks):
        weighting = OptimizedEdgeWeighting(blocks, "CBS")
        graph_edges = blocks.distinct_comparisons()
        for algorithm in (WeightedEdgePruning(), WeightedNodePruning()):
            pruned = algorithm.prune(weighting)
            assert pruned.distinct_comparisons() <= graph_edges

    @given(blocks=any_collections, k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_cep_respects_k(self, blocks, k):
        weighting = OptimizedEdgeWeighting(blocks, "JS")
        pruned = CardinalityEdgePruning(k=k).prune(weighting)
        assert pruned.cardinality <= k

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_wnp_covers_every_node(self, blocks):
        # Node-centric pruning guarantees every graph node keeps >= 1 edge.
        weighting = OptimizedEdgeWeighting(blocks, "JS")
        pruned = WeightedNodePruning().prune(weighting)
        nodes_with_edges = {
            entity
            for entity in blocks.entity_ids()
            if weighting.neighborhood(entity)
        }
        assert nodes_with_edges <= pruned.entity_ids()


class TestParallelExecutorEquivalence:
    """The node-partitioned executor is an exact drop-in for the serial code.

    The chunked code paths (partitioning, per-range steps, deterministic
    merge) run in-process here (``workers=1`` with several chunks) so
    hypothesis can afford many examples; dedicated thread-pool tests live
    in ``tests/test_parallel.py``.
    """

    ALGORITHMS = (
        CardinalityEdgePruning,
        CardinalityNodePruning,
        WeightedEdgePruning,
        WeightedNodePruning,
        RedefinedCardinalityNodePruning,
        RedefinedWeightedNodePruning,
        ReciprocalCardinalityNodePruning,
        ReciprocalWeightedNodePruning,
    )

    @given(
        blocks=any_collections,
        scheme=scheme_names,
        chunks=st.integers(min_value=1, max_value=6),
        chunk_size=st.sampled_from([None, 1, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_executor_matches_serial(
        self, blocks, scheme, chunks, chunk_size, tmp_path_factory
    ):
        """Same pairs in the same order: serial and chunked, each in memory
        (cached retention) and spilled (re-streamed retention; the
        executor's chunks write shards), for any edge-batch size."""
        ordered = blocks.sorted_by_cardinality()
        spill_dir = tmp_path_factory.mktemp("spill")
        for algorithm_class in self.ALGORITHMS:
            algorithm = algorithm_class()
            algorithm.chunk_size = chunk_size
            serial = algorithm.prune(OptimizedEdgeWeighting(ordered, scheme))
            spilled = algorithm.prune(
                OptimizedEdgeWeighting(ordered, scheme),
                sink=SpillSink(spill_dir=spill_dir, shard_pairs=3),
            )
            with ParallelMetaBlockingExecutor(
                OptimizedEdgeWeighting(ordered, scheme),
                workers=1,
                chunks=chunks,
            ) as executor:
                chunked = executor.prune(algorithm)
                chunked_spilled = executor.prune(
                    algorithm,
                    sink=SpillSink(spill_dir=spill_dir, shard_pairs=3),
                )
            label = algorithm_class.__name__
            assert list(spilled) == serial.pairs, label
            assert chunked.pairs == serial.pairs, label
            assert list(chunked_spilled) == serial.pairs, label
            spilled.release()
            chunked_spilled.release()

    @given(blocks=any_collections, scheme=scheme_names)
    @settings(max_examples=10, deadline=None)
    def test_multiprocess_executor_matches_serial(self, blocks, scheme):
        ordered = blocks.sorted_by_cardinality()
        for algorithm_class in (
            RedefinedWeightedNodePruning,
            ReciprocalCardinalityNodePruning,
        ):
            algorithm = algorithm_class()
            serial = algorithm.prune(OptimizedEdgeWeighting(ordered, scheme))
            executor = ParallelMetaBlockingExecutor(
                OptimizedEdgeWeighting(ordered, scheme), workers=2, chunks=3
            )
            assert executor.prune(algorithm).pairs == serial.pairs


class TestEntityIndexCSRInvariants:
    """The CSR arrays agree with a naive list-of-lists construction."""

    @given(blocks=any_collections)
    @settings(max_examples=60, deadline=None)
    def test_csr_matches_naive_index(self, blocks):
        index = EntityIndex(blocks)
        naive: list[list[int]] = [[] for _ in range(blocks.num_entities)]
        for position, block in enumerate(blocks):
            for entity in block.all_entities:
                naive[entity].append(position)
        for entity_blocks in naive:
            entity_blocks.sort()
        for entity in range(blocks.num_entities):
            assert index.block_list(entity) == naive[entity]
            assert index.block_slice(entity).tolist() == naive[entity]
            assert index.num_blocks_of(entity) == len(naive[entity])
        assert index.block_counts.tolist() == [len(b) for b in naive]
        assert index.indptr[0] == 0
        assert index.indptr[-1] == sum(len(b) for b in naive)

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_member_csr_matches_blocks(self, blocks):
        index = EntityIndex(blocks)
        for position, block in enumerate(blocks):
            start1 = index.member_indptr1[position]
            stop1 = index.member_indptr1[position + 1]
            assert index.members1[start1:stop1].tolist() == list(block.entities1)
            start2 = index.member_indptr2[position]
            stop2 = index.member_indptr2[position + 1]
            expected2 = (
                block.entities2 if block.entities2 is not None else block.entities1
            )
            assert index.members2[start2:stop2].tolist() == list(expected2)

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_second_side_mask_matches_membership(self, blocks):
        index = EntityIndex(blocks)
        on_second_side = set()
        for block in blocks:
            if block.entities2 is not None:
                on_second_side.update(block.entities2)
        for entity in range(blocks.num_entities):
            assert index.in_second_collection(entity) == (
                entity in on_second_side
            )
            assert bool(index.second_side_mask[entity]) == (
                entity in on_second_side
            )


class TestBlockFilteringInvariants:
    @given(
        blocks=any_collections,
        ratio=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_increases_comparisons(self, blocks, ratio):
        filtered = BlockFiltering(ratio).process(blocks)
        assert filtered.cardinality <= blocks.cardinality
        assert filtered.aggregate_size <= blocks.aggregate_size

    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_ratio_one_preserves_assignments(self, blocks):
        filtered = BlockFiltering(1.0).process(blocks)
        assert filtered.aggregate_size == blocks.aggregate_size

    @given(blocks=any_collections, ratio=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_comparisons_subset_of_original(self, blocks, ratio):
        filtered = BlockFiltering(ratio).process(blocks)
        assert (
            filtered.distinct_comparisons() <= blocks.distinct_comparisons()
        )


class TestComparisonPropagationInvariants:
    @given(blocks=any_collections)
    @settings(max_examples=40, deadline=None)
    def test_exactly_distinct_comparisons(self, blocks):
        propagated = ComparisonPropagation().process(blocks)
        assert propagated.distinct_comparisons() == blocks.distinct_comparisons()
        assert propagated.cardinality == len(blocks.distinct_comparisons())

    @given(blocks=any_collections)
    @settings(max_examples=30, deadline=None)
    def test_strategies_agree(self, blocks):
        scan = ComparisonPropagation("scan").process(blocks)
        lecobi = ComparisonPropagation("lecobi").process(blocks)
        assert sorted(scan.pairs) == sorted(lecobi.pairs)


class TestDataStructureInvariants:
    @given(
        entries=st.lists(
            st.tuples(st.floats(min_value=0, max_value=1), st.integers(0, 100)),
            max_size=50,
        ),
        k=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_topk_matches_sort(self, entries, k):
        heap = TopKHeap(k)
        for score, item in entries:
            heap.push(score, item)
        expected = set()
        seen = sorted(entries, reverse=True)[:k]
        expected = {item for _, item in seen}
        # With ties the heap picks the larger items, same as the sort.
        assert heap.items() == expected

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_unionfind_partition(self, pairs):
        union = UnionFind(range(21))
        for left, right in pairs:
            union.union(left, right)
        components = list(union.components())
        flattened = sorted(item for component in components for item in component)
        assert flattened == list(range(21))  # a true partition
        for left, right in pairs:
            assert union.connected(left, right)
