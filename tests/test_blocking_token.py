"""Unit tests for Token Blocking."""

import pytest

from repro.blocking import TokenBlocking
from repro.datamodel.dataset import CleanCleanERDataset, DirtyERDataset
from repro.datamodel.groundtruth import DuplicateSet
from repro.datamodel.profiles import EntityCollection, EntityProfile


def _dirty(*values: str) -> DirtyERDataset:
    collection = EntityCollection(
        [
            EntityProfile.from_dict(f"p{i}", {"text": value})
            for i, value in enumerate(values)
        ]
    )
    return DirtyERDataset(collection, DuplicateSet([(0, 1)]))


class TestTokenBlockingDirty:
    def test_one_block_per_shared_token(self):
        blocks = TokenBlocking().build(_dirty("alpha beta", "beta gamma", "gamma"))
        keys = {block.key for block in blocks}
        assert keys == {"beta", "gamma"}

    def test_unshared_tokens_produce_no_block(self):
        blocks = TokenBlocking().build(_dirty("unique1", "unique2"))
        assert len(blocks) == 0

    def test_redundancy_positive_flag(self):
        assert TokenBlocking.redundancy_positive is True

    def test_min_token_length(self):
        blocks = TokenBlocking(min_token_length=3).build(_dirty("ab abc", "ab abc"))
        assert {block.key for block in blocks} == {"abc"}

    def test_min_token_length_below_one_rejected(self):
        # At 0 the empty string would become a key shared by every value
        # that starts or ends with punctuation.
        with pytest.raises(ValueError):
            TokenBlocking(min_token_length=0)

    def test_stop_words_excluded(self):
        blocks = TokenBlocking(stop_words=["the"]).build(
            _dirty("the alpha", "the alpha")
        )
        assert {block.key for block in blocks} == {"alpha"}

    def test_stop_words_case_insensitive(self):
        blocks = TokenBlocking(stop_words=["The"]).build(
            _dirty("THE alpha", "the alpha")
        )
        assert {block.key for block in blocks} == {"alpha"}

    def test_entity_in_block_once_despite_repeats(self):
        blocks = TokenBlocking().build(_dirty("echo echo echo", "echo"))
        (block,) = blocks
        assert block.entities1 == (0, 1)

    def test_deterministic_order(self):
        dataset = _dirty("b a", "a b")
        first = [b.key for b in TokenBlocking().build(dataset)]
        second = [b.key for b in TokenBlocking().build(dataset)]
        assert first == second == sorted(first)


class TestTokenBlockingCleanClean:
    def _dataset(self) -> CleanCleanERDataset:
        left = EntityCollection(
            [
                EntityProfile.from_dict("a0", {"title": "alpha shared"}),
                EntityProfile.from_dict("a1", {"title": "lonely"}),
            ],
            name="left",
        )
        right = EntityCollection(
            [
                EntityProfile.from_dict("b0", {"name": "shared beta"}),
                EntityProfile.from_dict("b1", {"name": "beta"}),
            ],
            name="right",
        )
        return CleanCleanERDataset(left, right, DuplicateSet([(0, 2)]))

    def test_blocks_are_bilateral(self):
        blocks = TokenBlocking().build(self._dataset())
        assert all(block.is_bilateral for block in blocks)

    def test_single_side_keys_dropped(self):
        blocks = TokenBlocking().build(self._dataset())
        keys = {block.key for block in blocks}
        # "alpha" and "lonely" exist only in the left collection, "beta"
        # only in the right one; only "shared" spans both.
        assert keys == {"shared"}

    def test_unified_ids(self):
        blocks = TokenBlocking().build(self._dataset())
        (block,) = blocks
        assert block.entities1 == (0,)
        assert block.entities2 == (2,)

    def test_schema_agnostic(self):
        # Attribute names differ entirely between the sources; blocking
        # works anyway because only values are tokenised.
        blocks = TokenBlocking().build(self._dataset())
        assert len(blocks) == 1
