"""Loose-schema (BLAST) token blocking.

The blocking key is the token concatenated with the id of the attribute
cluster the token's attribute belongs to (Figure 2(b) of the paper): the token
``simonini`` occurring in an *author* attribute becomes ``simonini_1`` while
the same token in a *title/abstract* attribute becomes ``simonini_2``, so the
two usages no longer collide in one block.

Blocks inherit the Shannon entropy of their attribute cluster, which the BLAST
meta-blocking later uses to re-weight edges.
"""

from __future__ import annotations

from repro.blocking.base import Blocker, block_by_keys
from repro.blocking.block import BlockCollection
from repro.data.dataset import ProfileCollection
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.utils.tokenize import tokenize


class LooseSchemaTokenBlocking(Blocker):
    """Token blocking with attribute-cluster-qualified keys.

    Parameters
    ----------
    partitioning:
        The attribute partitioning produced by the loose-schema generator.
        Attributes not present fall into the blob cluster.
    cluster_entropies:
        Optional mapping cluster id → Shannon entropy; blocks inherit the
        entropy of the cluster of their key.
    min_token_length / remove_stopwords:
        Tokenization options (same semantics as :class:`TokenBlocking`).
    """

    def __init__(
        self,
        partitioning: AttributePartitioning,
        *,
        cluster_entropies: dict[int, float] | None = None,
        min_token_length: int = 1,
        remove_stopwords: bool = False,
    ) -> None:
        self.partitioning = partitioning
        self.cluster_entropies = cluster_entropies or {}
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords

    def block(self, profiles: ProfileCollection) -> BlockCollection:
        """Build one block per ``token_clusterId`` key.

        An attribute's cluster is resolved by ``(source_id, attribute)``, the
        way the entropy extractor resolves it.
        """
        cluster_of = self.partitioning.cluster_by_attribute()
        blob_id = self.partitioning.blob_cluster_id
        min_length = self.min_token_length
        remove_stopwords = self.remove_stopwords
        entropies = self.cluster_entropies

        def keys_of(profile) -> set[tuple[str, int]]:
            source_id = profile.source_id
            keys = set()
            for attribute, value in profile.items():
                cluster_id = cluster_of.get((source_id, attribute), blob_id)
                for token in tokenize(
                    value, min_length=min_length, remove_stopwords=remove_stopwords
                ):
                    keys.add((token, cluster_id))
            return keys

        return block_by_keys(
            profiles,
            keys_of,
            lambda key: (f"{key[0]}_{key[1]}", entropies.get(key[1], 1.0)),
        )

    def key_for(self, token: str, attribute: str, source_id: int | None = None) -> str:
        """Return the loose-schema blocking key of ``token`` in ``attribute``."""
        return f"{token}_{self.partitioning.cluster_of(attribute, source_id)}"
