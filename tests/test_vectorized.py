"""Tests for the numpy-vectorized weighting backend."""

import numpy as np
import pytest

from repro.core.edge_weighting import OptimizedEdgeWeighting
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.weights import WEIGHTING_SCHEMES
from repro.core.pipeline import meta_block
from repro.datamodel.blocks import Block, BlockCollection


def _edges(weighting):
    return {(left, right): weight for left, right, weight in weighting.iter_edges()}


@pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
class TestAgreesWithOptimized:
    def test_paper_example(self, example_blocks, scheme):
        vectorized = _edges(VectorizedEdgeWeighting(example_blocks, scheme))
        optimized = _edges(OptimizedEdgeWeighting(example_blocks, scheme))
        assert vectorized.keys() == optimized.keys()
        assert vectorized == optimized

    def test_dirty_synthetic(self, tiny_dirty_blocks, scheme):
        vectorized = _edges(VectorizedEdgeWeighting(tiny_dirty_blocks, scheme))
        optimized = _edges(OptimizedEdgeWeighting(tiny_dirty_blocks, scheme))
        assert vectorized.keys() == optimized.keys()
        assert vectorized == optimized

    def test_clean_clean_synthetic(self, small_clean_blocks, scheme):
        vectorized = _edges(VectorizedEdgeWeighting(small_clean_blocks, scheme))
        optimized = _edges(OptimizedEdgeWeighting(small_clean_blocks, scheme))
        assert vectorized.keys() == optimized.keys()
        assert vectorized == optimized

    def test_neighborhoods_agree(self, example_blocks, scheme):
        vectorized = VectorizedEdgeWeighting(example_blocks, scheme)
        optimized = OptimizedEdgeWeighting(example_blocks, scheme)
        for entity in vectorized.nodes():
            left = dict(vectorized.neighborhood(entity))
            right = dict(optimized.neighborhood(entity))
            assert left == right


#: ``|B_i|`` values ``v`` for which numpy's array ``log10(100 / v)`` and
#: :func:`math.log10` round differently on x86-64 glibc builds, and node
#: degrees that do the same for ``log10(500 / v)``.
LOG10_SPLIT_BLOCKS = [7, 9, 18, 32, 33]
LOG10_SPLIT_DEGREES = [21, 27, 33, 35, 45]


class TestWeightArrayConsistency:
    @pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
    def test_array_matches_scalar(self, scheme):
        instance = WEIGHTING_SCHEMES[scheme]
        rng = np.random.default_rng(5)
        count = 50
        common = np.concatenate((rng.integers(0, 6, count), [1, 1, 2, 1, 3]))
        arcs = rng.random(count + 5)
        bi = np.concatenate(
            (common[:count] + rng.integers(1, 10, count), LOG10_SPLIT_BLOCKS)
        )
        bj = np.concatenate(
            (common[:count] + rng.integers(1, 10, count), LOG10_SPLIT_BLOCKS[::-1])
        )
        di = np.concatenate((rng.integers(1, 20, count), LOG10_SPLIT_DEGREES))
        dj = np.concatenate(
            (rng.integers(1, 20, count), LOG10_SPLIT_DEGREES[::-1])
        )
        vector = instance.weight_array(common, arcs, bi, bj, di, dj, 100, 500)
        for position in range(count + 5):
            scalar = instance.weight(
                int(common[position]),
                float(arcs[position]),
                int(bi[position]),
                int(bj[position]),
                int(di[position]),
                int(dj[position]),
                100,
                500,
            )
            assert vector[position] == scalar


class TestPruningOnVectorized:
    @pytest.mark.parametrize("name", sorted(PRUNING_ALGORITHMS))
    def test_identical_pruning_output(self, example_blocks, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        vectorized = algorithm.prune(VectorizedEdgeWeighting(example_blocks, "JS"))
        optimized = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "JS"))
        assert sorted(vectorized.pairs) == sorted(optimized.pairs)

    def test_via_pipeline_backend(self, small_dirty_blocks):
        vectorized = meta_block(
            small_dirty_blocks, scheme="JS", algorithm="RcWNP", backend="vectorized"
        )
        optimized = meta_block(
            small_dirty_blocks, scheme="JS", algorithm="RcWNP", backend="optimized"
        )
        assert sorted(vectorized.comparisons.pairs) == sorted(
            optimized.comparisons.pairs
        )


class TestDegenerate:
    def test_empty_collection(self):
        weighting = VectorizedEdgeWeighting(BlockCollection([], 0), "JS")
        assert list(weighting.iter_edges()) == []
        assert weighting.graph_size == 0

    def test_entity_with_no_blocks(self):
        blocks = BlockCollection([Block("a", (0, 1))], num_entities=5)
        weighting = VectorizedEdgeWeighting(blocks, "JS")
        assert weighting.neighborhood(4) == []

    def test_graph_stats(self, example_blocks):
        weighting = VectorizedEdgeWeighting(example_blocks, "JS")
        assert weighting.graph_order == 6
        assert weighting.graph_size == 10
        assert weighting.degrees() == [2, 2, 5, 5, 3, 3]


class TestDefaultWeightArrayFallback:
    def test_x2_uses_base_class_fallback(self, example_blocks):
        # X2 defines no numpy override, so the vectorized backend exercises
        # WeightingScheme.weight_array's scalar-loop fallback; outputs must
        # still agree with the optimized backend.
        vectorized = _edges(VectorizedEdgeWeighting(example_blocks, "X2"))
        optimized = _edges(OptimizedEdgeWeighting(example_blocks, "X2"))
        assert vectorized.keys() == optimized.keys()
        assert vectorized == optimized
