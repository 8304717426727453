"""Unit tests for the original and optimized edge weighting backends.

The central contract: both backends expose exactly the same weighted
blocking graph, for every weighting scheme and both ER tasks.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.edge_weighting import OptimizedEdgeWeighting, OriginalEdgeWeighting
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.weights import WEIGHTING_SCHEMES
from repro.datamodel.blocks import Block, BlockCollection

BACKENDS = [OptimizedEdgeWeighting, OriginalEdgeWeighting]


def _edges_as_dict(weighting):
    return {(left, right): weight for left, right, weight in weighting.iter_edges()}


@pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
class TestBackendsAgree:
    def test_on_paper_example(self, example_blocks, scheme):
        optimized = _edges_as_dict(OptimizedEdgeWeighting(example_blocks, scheme))
        original = _edges_as_dict(OriginalEdgeWeighting(example_blocks, scheme))
        assert set(optimized) == set(original)
        for edge, weight in optimized.items():
            assert weight == pytest.approx(original[edge], abs=1e-12)

    def test_on_dirty_synthetic(self, tiny_dirty_blocks, scheme):
        optimized = _edges_as_dict(OptimizedEdgeWeighting(tiny_dirty_blocks, scheme))
        original = _edges_as_dict(OriginalEdgeWeighting(tiny_dirty_blocks, scheme))
        assert optimized.keys() == original.keys()
        for edge, weight in optimized.items():
            assert weight == pytest.approx(original[edge], abs=1e-9)

    def test_on_clean_clean_synthetic(self, small_clean_blocks, scheme):
        optimized = _edges_as_dict(
            OptimizedEdgeWeighting(small_clean_blocks, scheme)
        )
        original = _edges_as_dict(OriginalEdgeWeighting(small_clean_blocks, scheme))
        assert optimized.keys() == original.keys()
        for edge, weight in optimized.items():
            assert weight == pytest.approx(original[edge], abs=1e-9)

    def test_neighborhoods_match_edges(self, example_blocks, scheme):
        weighting = OptimizedEdgeWeighting(example_blocks, scheme)
        edges = _edges_as_dict(weighting)
        for entity, neighborhood in weighting.iter_neighborhoods():
            for other, weight in neighborhood:
                key = (min(entity, other), max(entity, other))
                assert weight == pytest.approx(edges[key], abs=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGraphStructure:
    def test_paper_example_graph(self, example_blocks, backend):
        weighting = backend(example_blocks, "JS")
        assert weighting.graph_order == 6
        assert weighting.graph_size == 10

    def test_each_edge_emitted_once(self, example_blocks, backend):
        edges = [
            (left, right) for left, right, _ in backend(example_blocks, "CBS").iter_edges()
        ]
        assert len(edges) == len(set(edges))

    def test_edges_canonical(self, example_blocks, backend):
        for left, right, _ in backend(example_blocks, "CBS").iter_edges():
            assert left < right

    def test_degrees(self, example_blocks, backend):
        degrees = backend(example_blocks, "JS").degrees()
        # From Figure 2(a): p3 and p4 have 5 neighbours each, p1/p2 two,
        # p5 three, p6 three.
        assert degrees == [2, 2, 5, 5, 3, 3]

    def test_neighborhood_symmetry(self, example_blocks, backend):
        weighting = backend(example_blocks, "JS")
        neighbors = {
            entity: {other for other, _ in neighborhood}
            for entity, neighborhood in weighting.iter_neighborhoods()
        }
        for entity, others in neighbors.items():
            for other in others:
                assert entity in neighbors[other]


class TestOptimizedSpecifics:
    def test_repeated_passes_are_stable(self, example_blocks):
        # Regression test: the flags array must not leak state between
        # passes (WEP iterates edges twice).
        weighting = OptimizedEdgeWeighting(example_blocks, "JS")
        first = sorted(weighting.iter_edges())
        second = sorted(weighting.iter_edges())
        assert first == second

    def test_neighborhood_then_edges(self, example_blocks):
        weighting = OptimizedEdgeWeighting(example_blocks, "JS")
        _ = weighting.neighborhood(2)
        assert len(list(weighting.iter_edges())) == 10

    def test_bilateral_edges_cross_split_only(self, small_clean_blocks):
        weighting = OptimizedEdgeWeighting(small_clean_blocks, "CBS")
        index = weighting.index
        for left, right, _ in weighting.iter_edges():
            assert index.in_second_collection(right)
            assert not index.in_second_collection(left)


class TestSchemeBehaviourOnGraph:
    def test_cbs_weights_are_common_block_counts(self, example_blocks):
        weighting = OptimizedEdgeWeighting(example_blocks, "CBS")
        edges = _edges_as_dict(weighting)
        assert edges[(0, 2)] == 2.0  # jack + miller
        assert edges[(4, 5)] == 1.0  # car only

    def test_arcs_prefers_small_blocks(self, example_blocks):
        weighting = OptimizedEdgeWeighting(example_blocks, "ARCS")
        edges = _edges_as_dict(weighting)
        # (p1,p3) share two unit blocks (1/1 + 1/1); (p5,p6) share only the
        # six-comparison "car" block (1/6).
        assert edges[(0, 2)] == pytest.approx(2.0)
        assert edges[(4, 5)] == pytest.approx(1 / 6)
        assert edges[(0, 2)] > edges[(4, 5)]

    def test_ejs_discounts_hub_nodes(self, example_blocks):
        js_edges = _edges_as_dict(OptimizedEdgeWeighting(example_blocks, "JS"))
        ejs_edges = _edges_as_dict(OptimizedEdgeWeighting(example_blocks, "EJS"))
        # p3 and p4 are the hubs (degree 5): their mutual edge loses more
        # weight relative to JS than the (p1,p2)-style low-degree edges.
        ratio_hub = ejs_edges[(2, 3)] / js_edges[(2, 3)]
        ratio_leaf = ejs_edges[(0, 2)] / js_edges[(0, 2)]
        assert ratio_hub < ratio_leaf


class TestEmptyAndDegenerate:
    def test_empty_collection(self):
        weighting = OptimizedEdgeWeighting(BlockCollection([], 0), "JS")
        assert list(weighting.iter_edges()) == []
        assert weighting.graph_order == 0
        assert weighting.graph_size == 0

    def test_single_block(self):
        blocks = BlockCollection([Block("only", (0, 1))], num_entities=2)
        weighting = OptimizedEdgeWeighting(blocks, "JS")
        assert list(weighting.iter_edges()) == [(0, 1, 1.0)]

    def test_unknown_backend_scheme(self):
        with pytest.raises(ValueError):
            OptimizedEdgeWeighting(BlockCollection([], 0), "XXX")


@st.composite
def block_collections(draw):
    """Small unilateral or bilateral collections over a shared id space.

    Members come in random order (a node's first-met neighbour is often not
    its smallest), blocks overlap in several members, and some ids may sit
    in no block at all.
    """
    num_entities = draw(st.integers(min_value=2, max_value=14))
    num_blocks = draw(st.integers(min_value=0, max_value=8))
    if draw(st.booleans()):
        members = st.lists(
            st.integers(0, num_entities - 1), min_size=2, max_size=6, unique=True
        )
        blocks = [Block(f"b{i}", draw(members)) for i in range(num_blocks)]
    else:
        split = draw(st.integers(min_value=1, max_value=num_entities - 1))
        first = st.lists(
            st.integers(0, split - 1), min_size=1, max_size=4, unique=True
        )
        second = st.lists(
            st.integers(split, num_entities - 1), min_size=1, max_size=4, unique=True
        )
        blocks = [
            Block(f"b{i}", draw(first), draw(second)) for i in range(num_blocks)
        ]
    return BlockCollection(blocks, num_entities)


#: Entities 0 and 1 share five blocks of different cardinalities, so their
#: ARCS sum depends on the order its terms are added in; 0 meets 4 first.
ARCS_ORDER_BLOCKS = BlockCollection(
    [
        Block("a", (0, 4, 1)),
        Block("b", (5, 6, 0, 1)),
        Block("c", (0, 7, 8, 1, 9)),
        Block("d", (10, 1, 11, 0, 12, 13)),
        Block("e", (0, 14, 1, 15, 16, 17, 18)),
        Block("f", (3, 2)),
    ],
    num_entities=20,
)


class TestBulkKernelsMatchScalarNeighborhoods:
    """Every backend's bulk kernel reproduces its own scalar neighbourhood,
    checked against Algorithm 3's per-node ScanCount (``_scan``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=block_collections(),
        scheme=st.sampled_from(["ARCS", "CBS", "ECBS", "JS", "EJS", "X2"]),
        entities=st.lists(st.integers(0, 19), max_size=16, unique=True),
    )
    @example(
        blocks=ARCS_ORDER_BLOCKS, scheme="ARCS", entities=[1, 0, 19, 4, 3]
    )
    def test_batch_counts_and_degrees(self, blocks, scheme, entities):
        entities = [e for e in entities if e < blocks.num_entities]
        oracle = OptimizedEdgeWeighting(blocks, scheme)
        found, common = {}, {}
        for entity in entities:
            # Each scan reuses the counters: read them before the next.
            found[entity] = oracle._scan(entity)
            common[entity] = {j: oracle._common[j] for j in found[entity]}
        scanned_degrees = [
            oracle.count_neighbors(entity)
            for entity in range(blocks.num_entities)
        ]
        for backend in (
            OriginalEdgeWeighting,
            OptimizedEdgeWeighting,
            VectorizedEdgeWeighting,
        ):
            weighting = backend(blocks, scheme)
            batch = weighting.neighborhood_batch(entities)
            assert batch.entities.tolist() == entities
            for position, entity in enumerate(entities):
                span = batch.segment(position)
                neighborhood = weighting.neighborhood(entity)
                neighbors = batch.neighbors[span].tolist()
                assert neighbors == [other for other, _ in neighborhood]
                assert batch.weights[span].tolist() == [
                    weight for _, weight in neighborhood
                ]
                if backend is OptimizedEdgeWeighting:
                    assert neighbors == found[entity]
                elif backend is VectorizedEdgeWeighting:
                    assert neighbors == sorted(found[entity])
                if batch.counts is not None:
                    assert batch.counts[span].tolist() == [
                        common[entity][other] for other in neighbors
                    ]
            assert weighting.degrees() == scanned_degrees
            assert weighting.degrees() == [
                weighting.count_neighbors(entity)
                for entity in range(blocks.num_entities)
            ]
