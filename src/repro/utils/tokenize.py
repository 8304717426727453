"""Schema-agnostic tokenization of attribute values.

Token Blocking and the Jaccard entity matcher both view an entity profile as
the bag of tokens appearing anywhere in its attribute *values* (attribute
names are deliberately ignored — the paper's schema-agnostic functionality).
The tokenizer used here mirrors the one used by the paper's reference
implementation: split on any non-alphanumeric character and lowercase.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.datamodel.profiles import EntityProfile

_TOKEN_PATTERN = re.compile(r"[\W_]+", re.UNICODE)


def tokenize(text: str, min_length: int = 1) -> list[str]:
    """Split ``text`` into lowercase alphanumeric tokens.

    Splitting happens on every non-alphanumeric character (whitespace,
    punctuation, hyphens, underscores, ...), which makes ``"car vendor-seller"``
    yield ``["car", "vendor", "seller"]`` exactly as in the paper's running
    example (Figure 1).

    Parameters
    ----------
    text:
        The raw attribute value.
    min_length:
        Tokens shorter than this many characters are dropped; at least 1,
        so the empty strings the split leaves around leading or trailing
        separators never become tokens. The default of 1 keeps everything
        non-empty.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be positive, got {min_length}")
    if not text:
        return []
    return [
        token
        for token in _TOKEN_PATTERN.split(text.lower())
        if len(token) >= min_length
    ]


def attribute_value_tokens(values: Iterable[str], min_length: int = 1) -> set[str]:
    """Return the set of distinct tokens across several attribute values.

    The values are split once, joined by a space: the space is a separator,
    so no token spans two values, and it stops ``str.lower``'s final-sigma
    rule from looking across a value boundary. With ``min_length >= 1``
    this equals the union of :func:`tokenize` over each value.
    """
    return set(tokenize(" ".join(values), min_length=min_length))


def profile_tokens(profile: "EntityProfile", min_length: int = 1) -> set[str]:
    """Return the distinct tokens appearing in any value of ``profile``.

    This is the representation used both by Token Blocking (one block per
    shared token) and by the Jaccard similarity entity matcher.
    """
    return attribute_value_tokens(
        (attribute.value for attribute in profile.attributes),
        min_length=min_length,
    )


def character_qgrams(text: str, q: int = 3) -> set[str]:
    """Return the set of character q-grams of every token of ``text``.

    Tokens shorter than ``q`` are kept whole, so very short values still
    produce a blocking key. Used by Q-grams Blocking.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    grams: set[str] = set()
    for token in tokenize(text):
        if len(token) <= q:
            grams.add(token)
        else:
            grams.update(token[i : i + q] for i in range(len(token) - q + 1))
    return grams


def token_suffixes(token: str, min_length: int) -> set[str]:
    """Return all suffixes of ``token`` with at least ``min_length`` chars.

    Used by Suffix Arrays Blocking; the token itself is always included when
    it meets the minimum length.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be positive, got {min_length}")
    if len(token) < min_length:
        return set()
    return {token[i:] for i in range(len(token) - min_length + 1)}
