"""Schema-agnostic token blocking (Papadakis et al.).

Every token appearing in any attribute value of a profile is a blocking key;
schema information is ignored.  The result is the high-recall / low-precision
blocking collection the paper's introduction describes (Figure 1(b)).
"""

from __future__ import annotations

import numpy as np

from repro.blocking.base import Blocker, group_token_keys
from repro.blocking.block import BlockCollection
from repro.data.dataset import ProfileCollection
from repro.utils.tokenize import TokenTable, table_for


def group_tokens(forms, tokens, sides, rows, profile_ids, clean_clean: bool) -> BlockCollection:
    """Token blocks of occurrence columns (see :func:`group_token_keys`): a
    key is an index into ``forms``, its block is named by the form and has
    entropy 1."""

    def describe(keys):
        return list(map(forms.__getitem__, keys.tolist())), np.ones(len(keys))

    return group_token_keys(tokens, sides, rows, profile_ids, describe, clean_clean)


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

    def block(self, profiles: ProfileCollection, table: TokenTable | None = None) -> BlockCollection:
        """Build one block per token that appears in at least one profile."""
        table = table_for(profiles, table)
        values, tokens = table.select(
            min_length=self.min_token_length, remove_stopwords=self.remove_stopwords
        )
        clean_clean = profiles.is_clean_clean
        sides, rows = table.members(values, clean_clean)
        return group_tokens(table.forms, tokens, sides, rows, table.profile_ids, clean_clean)
