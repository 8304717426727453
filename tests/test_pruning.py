"""Unit tests for the eight pruning algorithms."""

from fractions import Fraction

import pytest

from repro.core.edge_weighting import OptimizedEdgeWeighting, OriginalEdgeWeighting
from repro.core.pruning import (
    PRUNING_ALGORITHMS,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    RedefinedCardinalityNodePruning,
    RedefinedWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.core.pruning.base import (
    cardinality_edge_threshold,
    cardinality_node_threshold,
    mean_edge_weight,
)
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.blocks import Block, BlockCollection
from repro.evaluation import evaluate

#: Collections whose neighbourhoods hold several equal, inexact weights.
#: ``sum([0.2] * 3) / 3`` rounds one ulp above 0.2, so an unclamped mean
#: threshold drops every edge of such a node.
EQUAL_WEIGHT_COLLECTIONS = {
    # Node 0 has three neighbours, all at JS 1/5.
    "star": [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7),
             (3, 8), (3, 9)],
    # Every edge of K4 weighs JS 1/5, so every node is affected.
    "k4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}

WEIGHTING_BACKENDS = {
    "original": OriginalEdgeWeighting,
    "optimized": OptimizedEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}


def _exact_wnp_pairs(members, conjunctive):
    """Distinct pairs WNP-family retention keeps, in exact JS arithmetic."""
    blocks_of: dict[int, set[int]] = {}
    for position, block in enumerate(members):
        for entity in block:
            blocks_of.setdefault(entity, set()).add(position)
    weights: dict[int, dict[int, Fraction]] = {}
    for left, left_blocks in blocks_of.items():
        for right, right_blocks in blocks_of.items():
            common = len(left_blocks & right_blocks)
            if left != right and common:
                weights.setdefault(left, {})[right] = Fraction(
                    common, len(left_blocks) + len(right_blocks) - common
                )
    means = {
        entity: sum(row.values()) / len(row) for entity, row in weights.items()
    }
    kept = set()
    for left, row in weights.items():
        for right, weight in row.items():
            over = (weight >= means[left], weight >= means[right])
            if all(over) if conjunctive else any(over):
                kept.add((min(left, right), max(left, right)))
    return kept


def _weighting(blocks, scheme="JS"):
    return OptimizedEdgeWeighting(blocks, scheme)


class TestThresholds:
    def test_cep_threshold_paper_formula(self, example_blocks):
        # sum(|b|) = 7*2 + 4 = 18 -> K = 9.
        assert cardinality_edge_threshold(example_blocks) == 9

    def test_cnp_threshold_paper_formula(self, example_blocks):
        # BPE = 18/6 = 3 -> k = 2.
        assert cardinality_node_threshold(example_blocks) == 2

    def test_cnp_threshold_floor_of_one(self):
        assert cardinality_node_threshold(BlockCollection([], 5)) == 1

    def test_mean_edge_weight(self, example_blocks):
        mean = mean_edge_weight(_weighting(example_blocks))
        assert mean == pytest.approx(0.27179, abs=1e-4)


class TestCEP:
    def test_retains_exactly_k(self, example_blocks):
        pruned = CardinalityEdgePruning(k=4).prune(_weighting(example_blocks))
        assert pruned.cardinality == 4

    def test_top_4_matches_figure_2b(self, example_blocks):
        # The paper notes CEP with K=4 would also produce Figure 2(b) minus
        # the lowest edge: the four top-weighted edges.
        pruned = CardinalityEdgePruning(k=4).prune(_weighting(example_blocks))
        assert pruned.distinct_comparisons() == {
            (4, 5),  # 1/2
            (2, 4),  # 2/5
            (1, 3),  # 2/5
            (0, 2),  # 2/6
        }

    def test_default_threshold(self, example_blocks):
        pruned = CardinalityEdgePruning().prune(_weighting(example_blocks))
        assert pruned.cardinality == min(9, 10)

    def test_k_larger_than_graph(self, example_blocks):
        pruned = CardinalityEdgePruning(k=999).prune(_weighting(example_blocks))
        assert pruned.cardinality == 10

    def test_no_redundant_output(self, example_blocks):
        pruned = CardinalityEdgePruning().prune(_weighting(example_blocks))
        assert pruned.cardinality == len(pruned.distinct_comparisons())

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CardinalityEdgePruning(k=0)


class TestWEP:
    def test_mean_threshold_retains_above_average(self, example_blocks):
        pruned = WeightedEdgePruning().prune(_weighting(example_blocks))
        # Mean is ~0.2718: edges 1/3, 2/5, 2/5, 1/2 survive.
        assert pruned.distinct_comparisons() == {
            (0, 2),
            (1, 3),
            (2, 4),
            (4, 5),
        }

    def test_threshold_inclusive(self, example_blocks):
        pruned = WeightedEdgePruning(threshold=0.25).prune(
            _weighting(example_blocks)
        )
        assert (3, 5) in pruned.distinct_comparisons()  # weight exactly 1/4

    def test_zero_threshold_keeps_everything(self, example_blocks):
        pruned = WeightedEdgePruning(threshold=0.0).prune(
            _weighting(example_blocks)
        )
        assert pruned.cardinality == 10


class TestCNP:
    def test_every_entity_retains_an_edge(self, example_blocks):
        pruned = CardinalityNodePruning(k=1).prune(_weighting(example_blocks))
        covered = pruned.entity_ids()
        assert covered == {0, 1, 2, 3, 4, 5}

    def test_output_may_contain_redundant_pairs(self, example_blocks):
        pruned = CardinalityNodePruning(k=1).prune(_weighting(example_blocks))
        assert pruned.cardinality >= len(pruned.distinct_comparisons())

    def test_cardinality_at_most_k_per_node(self, example_blocks):
        pruned = CardinalityNodePruning(k=2).prune(_weighting(example_blocks))
        assert pruned.cardinality <= 2 * 6

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            CardinalityNodePruning(k=0)


class TestWNP:
    def test_matches_figure_5(self, example_blocks):
        pruned = WeightedNodePruning().prune(_weighting(example_blocks))
        assert pruned.cardinality == 9
        assert pruned.distinct_comparisons() == {
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 5),
            (4, 5),
        }

    @pytest.mark.parametrize("collection", sorted(EQUAL_WEIGHT_COLLECTIONS))
    @pytest.mark.parametrize("backend", sorted(WEIGHTING_BACKENDS))
    @pytest.mark.parametrize("name", ["WNP", "ReWNP", "RcWNP"])
    def test_equal_weights_reach_their_mean(self, collection, backend, name):
        members = EQUAL_WEIGHT_COLLECTIONS[collection]
        blocks = BlockCollection(
            [Block(str(position), block) for position, block in enumerate(members)],
            num_entities=max(map(max, members)) + 1,
        )
        pruned = PRUNING_ALGORITHMS[name]().prune(
            WEIGHTING_BACKENDS[backend](blocks, "JS")
        )
        expected = _exact_wnp_pairs(members, conjunctive=name == "RcWNP")
        assert pruned.distinct_comparisons() == expected
        if name != "RcWNP":
            assert {(0, 1), (0, 2), (0, 3)} <= expected


class TestRedefined:
    def test_redefined_cnp_no_redundancy(self, example_blocks):
        pruned = RedefinedCardinalityNodePruning(k=1).prune(
            _weighting(example_blocks)
        )
        assert pruned.cardinality == len(pruned.distinct_comparisons())

    def test_redefined_cnp_same_distinct_pairs_as_cnp(self, example_blocks):
        original = CardinalityNodePruning(k=2).prune(_weighting(example_blocks))
        redefined = RedefinedCardinalityNodePruning(k=2).prune(
            _weighting(example_blocks)
        )
        assert redefined.distinct_comparisons() == original.distinct_comparisons()

    def test_redefined_wnp_same_distinct_pairs_as_wnp(self, example_blocks):
        original = WeightedNodePruning().prune(_weighting(example_blocks))
        redefined = RedefinedWeightedNodePruning().prune(
            _weighting(example_blocks)
        )
        assert redefined.distinct_comparisons() == original.distinct_comparisons()

    def test_same_recall_fewer_comparisons(self, small_dirty, small_dirty_blocks):
        weighting = _weighting(small_dirty_blocks)
        original = WeightedNodePruning().prune(weighting)
        redefined = RedefinedWeightedNodePruning().prune(weighting)
        original_quality = evaluate(original, small_dirty.ground_truth)
        redefined_quality = evaluate(redefined, small_dirty.ground_truth)
        assert redefined_quality.pc == original_quality.pc
        assert redefined.cardinality <= original.cardinality


class TestReciprocal:
    def test_reciprocal_subset_of_redefined_cnp(self, small_dirty_blocks):
        weighting = _weighting(small_dirty_blocks)
        redefined = RedefinedCardinalityNodePruning().prune(weighting)
        reciprocal = ReciprocalCardinalityNodePruning().prune(weighting)
        assert (
            reciprocal.distinct_comparisons() <= redefined.distinct_comparisons()
        )

    def test_reciprocal_subset_of_redefined_wnp(self, small_dirty_blocks):
        weighting = _weighting(small_dirty_blocks)
        redefined = RedefinedWeightedNodePruning().prune(weighting)
        reciprocal = ReciprocalWeightedNodePruning().prune(weighting)
        assert (
            reciprocal.distinct_comparisons() <= redefined.distinct_comparisons()
        )

    def test_union_of_reciprocal_and_redefined_semantics(self, example_blocks):
        # An edge kept by redefined but not reciprocal is important for
        # exactly one endpoint.
        weighting = _weighting(example_blocks)
        redefined = RedefinedWeightedNodePruning().prune(weighting)
        reciprocal = ReciprocalWeightedNodePruning().prune(weighting)
        only_one_side = (
            redefined.distinct_comparisons() - reciprocal.distinct_comparisons()
        )
        assert only_one_side == {(3, 5)}  # p4 -> p6 but not p6 -> p4

    def test_no_redundancy(self, small_dirty_blocks):
        pruned = ReciprocalCardinalityNodePruning().prune(
            _weighting(small_dirty_blocks)
        )
        assert pruned.cardinality == len(pruned.distinct_comparisons())


class TestBackendIndependence:
    @pytest.mark.parametrize("name", sorted(PRUNING_ALGORITHMS))
    def test_same_result_under_both_backends(self, example_blocks, name):
        algorithm = PRUNING_ALGORITHMS[name]()
        optimized = algorithm.prune(OptimizedEdgeWeighting(example_blocks, "JS"))
        original = algorithm.prune(OriginalEdgeWeighting(example_blocks, "JS"))
        assert sorted(optimized.pairs) == sorted(original.pairs)


class TestRegistry:
    def test_registry_contents(self):
        assert set(PRUNING_ALGORITHMS) == {
            "CEP",
            "CNP",
            "WEP",
            "WNP",
            "ReCNP",
            "ReWNP",
            "RcCNP",
            "RcWNP",
        }

    def test_names_match_instances(self):
        for name, cls in PRUNING_ALGORITHMS.items():
            assert cls.name == name
