"""Unit tests for the non-token blocking methods."""

import pytest

from repro.blocking import (
    AttributeClusteringBlocking,
    CanopyClustering,
    QGramsBlocking,
    SortedNeighborhoodBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
)
from repro.blocking.standard import first_value_prefix
from repro.datamodel.dataset import CleanCleanERDataset, DirtyERDataset
from repro.datamodel.groundtruth import DuplicateSet
from repro.datamodel.profiles import EntityCollection, EntityProfile
from repro.evaluation import evaluate


def _dirty_from_values(values, ground_truth=((0, 1),)):
    collection = EntityCollection(
        [
            EntityProfile.from_dict(f"p{i}", {"text": value})
            for i, value in enumerate(values)
        ]
    )
    return DirtyERDataset(collection, DuplicateSet(ground_truth))


class TestQGramsBlocking:
    def test_robust_to_typos(self):
        # "research" vs "reseerch" share no token but share q-grams.
        dataset = _dirty_from_values(["research", "reseerch"])
        assert len(QGramsBlocking(q=3).build(dataset)) > 0

    def test_short_values(self):
        dataset = _dirty_from_values(["ab", "ab"])
        blocks = QGramsBlocking(q=3).build(dataset)
        assert {block.key for block in blocks} == {"ab"}

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramsBlocking(q=0)

    def test_redundancy_positive(self):
        assert QGramsBlocking.redundancy_positive is True


class TestSuffixArraysBlocking:
    def test_shared_suffix_blocks(self):
        dataset = _dirty_from_values(["johnson", "jonson"])
        blocks = SuffixArraysBlocking(min_suffix_length=4).build(dataset)
        keys = {block.key for block in blocks}
        assert "nson" in keys

    def test_oversized_suffix_blocks_dropped(self):
        values = [f"word{i} common" for i in range(10)]
        dataset = _dirty_from_values(values)
        blocks = SuffixArraysBlocking(
            min_suffix_length=4, max_block_size=5
        ).build(dataset)
        assert all(block.size <= 5 for block in blocks)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SuffixArraysBlocking(min_suffix_length=0)
        with pytest.raises(ValueError):
            SuffixArraysBlocking(max_block_size=1)


class TestAttributeClusteringBlocking:
    def _clean_clean(self):
        left = EntityCollection(
            [
                EntityProfile.from_dict(
                    "a0", {"title": "deep learning", "year": "2016"}
                ),
                EntityProfile.from_dict(
                    "a1", {"title": "graph mining", "year": "2014"}
                ),
            ],
            name="left",
        )
        right = EntityCollection(
            [
                EntityProfile.from_dict(
                    "b0", {"name": "deep learning", "date": "2016"}
                ),
                EntityProfile.from_dict(
                    "b1", {"name": "entity matching", "date": "2012"}
                ),
            ],
            name="right",
        )
        return CleanCleanERDataset(left, right, DuplicateSet([(0, 2)]))

    def test_min_token_length_below_one_rejected(self):
        with pytest.raises(ValueError):
            AttributeClusteringBlocking(min_token_length=0)

    def test_clusters_similar_attributes_across_sources(self):
        method = AttributeClusteringBlocking()
        blocks = method.build(self._clean_clean())
        clusters = method._clusters
        # title <-> name share values; year <-> date share values.
        assert clusters["title"] == clusters["name"]
        assert clusters["year"] == clusters["date"]
        assert clusters["title"] != clusters["year"]
        assert len(blocks) > 0

    def test_duplicates_still_cooccur(self):
        dataset = self._clean_clean()
        blocks = AttributeClusteringBlocking().build(dataset)
        assert evaluate(blocks, dataset.ground_truth).pc == 1.0

    def test_keys_qualified_by_cluster(self):
        # Same token under unrelated attributes must not co-occur.
        left = EntityCollection(
            [EntityProfile.from_dict("a0", {"color": "orange smoothie"})],
            name="left",
        )
        right = EntityCollection(
            [EntityProfile.from_dict("b0", {"fruit": "orange juice"})],
            name="right",
        )
        dataset = CleanCleanERDataset(left, right, DuplicateSet([(0, 1)]))
        blocks = AttributeClusteringBlocking().build(dataset)
        # color and fruit do share the token "orange", so they are linked
        # as most-similar attributes; the block exists within the cluster.
        assert all("#" in block.key for block in blocks)


class TestStandardBlocking:
    def test_disjoint_blocks(self):
        collection = EntityCollection(
            [
                EntityProfile.from_dict("a", {"surname": "Smith"}),
                EntityProfile.from_dict("b", {"surname": "Smithers"}),
                EntityProfile.from_dict("c", {"surname": "Jones"}),
            ]
        )
        dataset = DirtyERDataset(collection, DuplicateSet([(0, 1)]))
        blocks = StandardBlocking(first_value_prefix("surname", 3)).build(dataset)
        keys = {block.key for block in blocks}
        assert keys == {"smi"}  # "jon" block has a single member -> dropped
        # Each entity contributes at most one key: blocks are disjoint.
        assignments = blocks.block_assignments()
        assert all(count == 1 for count in assignments.values())

    def test_missing_attribute_produces_no_key(self):
        collection = EntityCollection(
            [
                EntityProfile.from_dict("a", {"other": "x"}),
                EntityProfile.from_dict("b", {"surname": "Smith"}),
                EntityProfile.from_dict("c", {"surname": "Smith"}),
            ]
        )
        dataset = DirtyERDataset(collection, DuplicateSet([(1, 2)]))
        blocks = StandardBlocking(first_value_prefix("surname")).build(dataset)
        assert blocks.entity_ids() == {1, 2}

    def test_not_redundancy_positive(self):
        assert StandardBlocking.redundancy_positive is False


class TestSortedNeighborhood:
    def test_window_blocks(self):
        dataset = _dirty_from_values(["aaa", "aab", "zzz", "aaa aab"])
        blocks = SortedNeighborhoodBlocking(window=2).build(dataset)
        assert len(blocks) > 0
        assert all(block.size <= 2 for block in blocks)

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocking(window=1)

    def test_not_redundancy_positive(self):
        assert SortedNeighborhoodBlocking.redundancy_positive is False

    def test_clean_clean_windows_split_by_source(self):
        left = EntityCollection(
            [EntityProfile.from_dict("a0", {"v": "alpha"})], name="l"
        )
        right = EntityCollection(
            [EntityProfile.from_dict("b0", {"v": "alpha"})], name="r"
        )
        dataset = CleanCleanERDataset(left, right, DuplicateSet([(0, 1)]))
        blocks = SortedNeighborhoodBlocking(window=2).build(dataset)
        assert all(block.is_bilateral for block in blocks)
        assert evaluate(blocks, dataset.ground_truth).pc == 1.0


class TestCanopyClustering:
    def test_similar_profiles_share_canopy(self):
        dataset = _dirty_from_values(
            ["alpha beta gamma", "alpha beta gamma delta", "zzz yyy xxx"]
        )
        blocks = CanopyClustering(
            loose_threshold=0.4, tight_threshold=0.8, seed=1
        ).build(dataset)
        assert any({0, 1} <= set(block.entities1) for block in blocks)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            CanopyClustering(loose_threshold=0.9, tight_threshold=0.2)
        with pytest.raises(ValueError):
            CanopyClustering(loose_threshold=0.0)

    def test_deterministic_given_seed(self):
        dataset = _dirty_from_values(["a b", "a c", "b c", "a b c"])
        build = lambda: [  # noqa: E731
            (b.key, b.entities1)
            for b in CanopyClustering(seed=5).build(dataset)
        ]
        assert build() == build()

    def test_not_redundancy_positive(self):
        assert CanopyClustering.redundancy_positive is False
