"""Schema-agnostic token blocking (Papadakis et al.).

Every token appearing in any attribute value of a profile is a blocking key;
schema information is ignored.  The result is the high-recall / low-precision
blocking collection the paper's introduction describes (Figure 1(b)).
"""

from __future__ import annotations

from repro.blocking.base import Blocker, block_by_keys
from repro.blocking.block import BlockCollection
from repro.data.dataset import ProfileCollection


class TokenBlocking(Blocker):
    """Schema-agnostic token blocking.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are ignored (1 keeps everything).
    remove_stopwords:
        Drop English stop-words at tokenization time.
    """

    def __init__(self, *, min_token_length: int = 1, remove_stopwords: bool = False) -> None:
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords

    def block(self, profiles: ProfileCollection) -> BlockCollection:
        """Build one block per token that appears in at least one profile."""
        min_length = self.min_token_length
        remove_stopwords = self.remove_stopwords
        return block_by_keys(
            profiles,
            lambda p: p.tokens(min_length=min_length, remove_stopwords=remove_stopwords),
            lambda token: (token, 1.0),
        )
