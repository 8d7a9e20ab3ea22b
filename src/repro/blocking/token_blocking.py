"""Schema-agnostic token blocking (Papadakis et al.).

Every token appearing in any attribute value of a profile is a blocking key;
schema information is ignored.  The result is the high-recall / low-precision
blocking collection the paper's introduction describes (Figure 1(b)).

Two code paths are provided: a driver-side one and a distributed one expressed
on the mini engine (``flatMap`` tokens → ``groupByKey`` by token), which is
the structure SparkER runs on Spark.
"""

from __future__ import annotations

from repro.blocking.base import Blocker, block_by_keys
from repro.blocking.block import BlockCollection
from repro.data.dataset import ProfileCollection
from repro.engine.context import EngineContext


class TokenBlocking(Blocker):
    """Schema-agnostic token blocking.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are ignored (1 keeps everything).
    remove_stopwords:
        Drop English stop-words at tokenization time.
    engine:
        Optional :class:`EngineContext`; when given, the blocking runs as a
        distributed job on the mini engine, otherwise driver-side.
    """

    def __init__(
        self,
        *,
        min_token_length: int = 1,
        remove_stopwords: bool = False,
        engine: EngineContext | None = None,
    ) -> None:
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords
        self.engine = engine

    def block(self, profiles: ProfileCollection) -> BlockCollection:
        """Build one block per token that appears in at least one profile."""
        min_length = self.min_token_length
        remove_stopwords = self.remove_stopwords
        return block_by_keys(
            profiles,
            lambda p: p.tokens(min_length=min_length, remove_stopwords=remove_stopwords),
            lambda token: (token, 1.0),
            engine=self.engine,
            stage_name="token_blocking.tokens",
        )
