"""Unit tests for the schema-agnostic tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel.profiles import EntityProfile
from repro.utils.tokenize import (
    attribute_value_tokens,
    character_qgrams,
    profile_tokens,
    token_suffixes,
    tokenize,
)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("Jack Lloyd Miller") == ["jack", "lloyd", "miller"]

    def test_hyphen_splits(self):
        # The paper's "car vendor-seller" example relies on this.
        assert tokenize("car vendor-seller") == ["car", "vendor", "seller"]

    def test_punctuation_splits(self):
        assert tokenize("Smith, J.; Doe, A.") == ["smith", "j", "doe", "a"]

    def test_lowercases(self):
        assert tokenize("ABC Def") == ["abc", "def"]

    def test_numbers_kept(self):
        assert tokenize("year 2016") == ["year", "2016"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("--- ,,, !!!") == []

    def test_min_length_filters(self):
        assert tokenize("a bb ccc", min_length=2) == ["bb", "ccc"]

    def test_repeated_tokens_preserved(self):
        assert tokenize("la la land") == ["la", "la", "land"]

    def test_edge_separators_leave_no_empty_token(self):
        assert tokenize("-a b-") == ["a", "b"]

    def test_min_length_below_one_rejected(self):
        # A minimum of 0 would keep the empty strings the split leaves
        # around leading and trailing separators.
        with pytest.raises(ValueError):
            tokenize("-a b-", 0)


class TestAttributeValueTokens:
    def test_union_over_values(self):
        tokens = attribute_value_tokens(["alpha beta", "beta gamma"])
        assert tokens == {"alpha", "beta", "gamma"}

    def test_empty_iterable(self):
        assert attribute_value_tokens([]) == set()

    def test_final_sigma_stays_within_its_value(self):
        # Lowercasing picks the final form of a capital sigma that ends a
        # word; joining must not change which form each value gets.
        values = ["ΟΔΟΣ", "ΣΟΦΙΑ", "ΑΣ'", "'Σ"]
        expected = set().union(*(tokenize(value) for value in values))
        assert attribute_value_tokens(values) == expected
        assert "οδος" in expected and "σοφια" in expected

    @given(
        values=st.lists(
            st.text(alphabet="aZ9_- .,'ΣσςΑİß\u0301", max_size=8), max_size=5
        ),
        min_length=st.integers(min_value=1, max_value=3),
    )
    def test_one_split_equals_union_of_splits(self, values, min_length):
        expected: set[str] = set()
        for value in values:
            expected.update(tokenize(value, min_length=min_length))
        assert attribute_value_tokens(values, min_length=min_length) == expected


class TestProfileTokens:
    def test_ignores_attribute_names(self):
        profile = EntityProfile.from_dict(
            "x", {"uniquename": "alpha", "othername": "beta"}
        )
        tokens = profile_tokens(profile)
        assert tokens == {"alpha", "beta"}
        assert "uniquename" not in tokens

    def test_distinct(self):
        profile = EntityProfile.from_dict("x", {"a": "w w w", "b": "w"})
        assert profile_tokens(profile) == {"w"}


class TestCharacterQgrams:
    def test_trigrams(self):
        assert character_qgrams("abcd", q=3) == {"abc", "bcd"}

    def test_short_token_kept_whole(self):
        assert character_qgrams("ab", q=3) == {"ab"}

    def test_multiple_tokens(self):
        grams = character_qgrams("ab cd", q=2)
        assert grams == {"ab", "cd"}

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            character_qgrams("abc", q=0)


class TestTokenSuffixes:
    def test_all_suffixes(self):
        assert token_suffixes("abcde", 3) == {"abcde", "bcde", "cde"}

    def test_too_short_token(self):
        assert token_suffixes("ab", 3) == set()

    def test_exact_length(self):
        assert token_suffixes("abc", 3) == {"abc"}

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            token_suffixes("abc", 0)
