"""Token Blocking — the paper's input blocking method.

Token Blocking [Papadakis et al., TKDE 2013] is the simplest schema-agnostic,
redundancy-positive method: split every attribute value into tokens and
create one block per token shared by at least two profiles (for Clean-Clean
ER: by at least one profile of each collection). It completely ignores
attribute names, which is what lets it cope with the extreme schema
heterogeneity of Web data.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.blocking.base import BlockingMethod
from repro.datamodel.profiles import EntityProfile
from repro.utils.tokenize import profile_tokens


class TokenBlocking(BlockingMethod):
    """One block per distinct attribute-value token.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are ignored; 1 (the minimum) keeps
        everything. Raising it to 2-3 drops noise like single letters from
        initials.
    stop_words:
        Optional tokens to exclude entirely (high-frequency tokens produce
        enormous, useless blocks; Block Purging handles these too, but
        excluding them at the source is cheaper).
    """

    redundancy_positive = True

    def __init__(
        self,
        min_token_length: int = 1,
        stop_words: Iterable[str] = (),
    ) -> None:
        if min_token_length < 1:
            raise ValueError(
                f"min_token_length must be positive, got {min_token_length}"
            )
        self.min_token_length = min_token_length
        self.stop_words = frozenset(word.lower() for word in stop_words)

    def keys_for(self, profile: EntityProfile) -> Iterable[Hashable]:
        tokens = profile_tokens(profile, min_length=self.min_token_length)
        if self.stop_words:
            tokens -= self.stop_words
        return tokens
