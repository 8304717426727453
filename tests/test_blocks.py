"""Unit tests for blocks, block collections and comparison collections."""

import numpy as np
import pytest

from repro.datamodel.blocks import Block, BlockCollection, ComparisonCollection


class TestUnilateralBlock:
    def test_size_and_cardinality(self):
        block = Block("k", (1, 2, 3))
        assert block.size == 3
        assert block.cardinality == 3
        assert not block.is_bilateral

    def test_comparisons_canonical(self):
        block = Block("k", (3, 1, 2))
        assert set(block.comparisons()) == {(1, 2), (1, 3), (2, 3)}
        assert all(left < right for left, right in block.comparisons())

    def test_singleton_invalid(self):
        assert not Block("k", (5,)).is_valid

    def test_empty_invalid(self):
        assert not Block("k", ()).is_valid

    def test_without_entities(self):
        block = Block("k", (1, 2, 3)).without_entities({2})
        assert block.entities1 == (1, 3)


class TestBilateralBlock:
    def test_cardinality_is_cross_product(self):
        block = Block("k", (1, 2), (10, 11, 12))
        assert block.size == 5
        assert block.cardinality == 6
        assert block.is_bilateral

    def test_comparisons_cross_only(self):
        block = Block("k", (1, 2), (10,))
        assert set(block.comparisons()) == {(1, 10), (2, 10)}

    def test_one_sided_invalid(self):
        assert not Block("k", (1, 2), ()).is_valid
        assert not Block("k", (), (1, 2)).is_valid

    def test_all_entities(self):
        block = Block("k", (1,), (5,))
        assert block.all_entities == (1, 5)

    def test_without_entities_both_sides(self):
        block = Block("k", (1, 2), (5, 6)).without_entities({2, 5})
        assert block.entities1 == (1,)
        assert block.entities2 == (6,)

    def test_equality_and_hash(self):
        assert Block("k", (1,), (2,)) == Block("k", (1,), (2,))
        assert Block("k", (1,)) != Block("k", (1,), (2,))
        assert hash(Block("k", (1, 2))) == hash(Block("k", (1, 2)))


class TestBlockCollection:
    def _collection(self):
        return BlockCollection(
            [Block("a", (0, 1)), Block("b", (0, 1, 2)), Block("c", (3, 4))],
            num_entities=5,
        )

    def test_cardinality(self):
        assert self._collection().cardinality == 1 + 3 + 1

    def test_aggregate_size_and_bpe(self):
        collection = self._collection()
        assert collection.aggregate_size == 7
        assert collection.bpe == pytest.approx(7 / 5)

    def test_iter_comparisons_includes_redundant(self):
        comparisons = list(self._collection().iter_comparisons())
        assert comparisons.count((0, 1)) == 2

    def test_distinct_comparisons(self):
        assert self._collection().distinct_comparisons() == {
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
        }

    def test_entity_ids(self):
        assert self._collection().entity_ids() == {0, 1, 2, 3, 4}

    def test_block_assignments(self):
        assignments = self._collection().block_assignments()
        assert assignments[0] == 2
        assert assignments[3] == 1

    def test_sorted_by_cardinality_stable(self):
        ordered = self._collection().sorted_by_cardinality()
        assert [block.key for block in ordered] == ["a", "c", "b"]

    def test_only_valid(self):
        collection = BlockCollection(
            [Block("a", (0,)), Block("b", (1, 2))], num_entities=3
        )
        assert [b.key for b in collection.only_valid()] == ["b"]

    def test_negative_entities_rejected(self):
        with pytest.raises(ValueError):
            BlockCollection([], num_entities=-1)

    def test_is_bilateral(self):
        unilateral = BlockCollection([Block("a", (0, 1))], 2)
        bilateral = BlockCollection([Block("a", (0,), (1,))], 2)
        assert not unilateral.is_bilateral
        assert bilateral.is_bilateral

    def test_mixed_shapes_rejected(self):
        # One collection has one shape; mixing them used to lose the
        # bilateral block's comparisons downstream, in either block order.
        unilateral, bilateral = Block("a", (0, 1)), Block("b", (2,), (3,))
        for blocks in ([unilateral, bilateral], [bilateral, unilateral]):
            with pytest.raises(ValueError, match="not both"):
                BlockCollection(blocks, 4)

    def test_csr_arrays(self):
        collection = BlockCollection(
            [Block("x", (3, 1), (5,)), Block("y", (), (4, 6))], num_entities=7
        )
        assert collection.keys == ["x", "y"]
        assert collection.indptr1.tolist() == [0, 2, 2]
        assert collection.members1.tolist() == [3, 1]
        assert collection.indptr2.tolist() == [0, 1, 3]
        assert collection.members2.tolist() == [5, 4, 6]
        assert collection.block_sizes.tolist() == [3, 2]
        assert collection.block_cardinalities.tolist() == [2, 0]

    def test_from_csr_builds_the_block_view(self):
        collection = BlockCollection.from_csr(
            ["k", "j"],
            4,
            np.array([0, 2, 4]),
            np.array([0, 1, 3, 2]),
        )
        assert list(collection) == [Block("k", (0, 1)), Block("j", (3, 2))]
        assert collection[1].key == "j"

    def test_empty_collection_is_unilateral(self):
        empty = BlockCollection.from_csr(
            [], 3, np.zeros(1), np.empty(0), np.zeros(1), np.empty(0)
        )
        assert not empty.is_bilateral
        assert len(empty) == 0 and empty.cardinality == 0

    def test_sorted_by_cardinality_breaks_ties_by_key_then_input_order(self):
        collection = BlockCollection(
            [
                Block("b", (0, 1), (7,)),
                Block("a", (2,), (8,)),
                Block("b", (3,), (9,)),
                Block("a", (4, 5), (8,)),
            ],
            num_entities=10,
        )
        ordered = collection.sorted_by_cardinality()
        assert [(block.key, block.entities1) for block in ordered] == [
            ("a", (2,)),
            ("b", (3,)),
            ("a", (4, 5)),
            ("b", (0, 1)),
        ]


class TestComparisonCollection:
    def test_canonicalises_pairs(self):
        collection = ComparisonCollection([(5, 1), (1, 5)], num_entities=6)
        assert collection.pairs == [(1, 5), (1, 5)]
        assert collection.cardinality == 2
        assert collection.distinct_comparisons() == {(1, 5)}

    def test_entity_ids(self):
        collection = ComparisonCollection([(0, 3), (2, 4)], num_entities=5)
        assert collection.entity_ids() == {0, 2, 3, 4}

    def test_to_blocks_round_trip(self):
        collection = ComparisonCollection([(0, 1), (2, 3)], num_entities=4)
        blocks = collection.to_blocks()
        assert blocks.cardinality == 2
        assert blocks.distinct_comparisons() == {(0, 1), (2, 3)}

    def test_empty(self):
        collection = ComparisonCollection([], num_entities=0)
        assert collection.cardinality == 0
        assert list(collection) == []
