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

import numpy as np

from repro.blocking.base import Blocker, group_token_keys
from repro.blocking.block import BlockCollection
from repro.data.dataset import ProfileCollection
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.utils.tokenize import TokenTable, table_for


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

    def block(self, profiles: ProfileCollection, table: TokenTable | None = None) -> BlockCollection:
        """Build one block per ``token_clusterId`` key.

        An attribute's cluster is resolved by ``(source_id, attribute)``, the
        way the entropy extractor resolves it.
        """
        table = table_for(profiles, table)
        cluster_of = self.partitioning.cluster_by_attribute()
        blob_id = self.partitioning.blob_cluster_id
        # Per (source, attribute) key of the table: the position of its cluster
        # among the clusters in use; a blocking key is token id × width + position.
        used, position = [cluster_of.get(key, blob_id) for key in table.attributes], {}
        cluster_at = np.array([position.setdefault(c, len(position)) for c in used], dtype=np.int64)
        clusters, width, forms = list(position), max(len(position), 1), table.forms
        entropies = np.array([self.cluster_entropies.get(c, 1.0) for c in clusters], dtype=float)

        def describe(keys):
            tokens, at = np.divmod(keys, width)
            pairs = zip(tokens.tolist(), at.tolist())
            return [f"{forms[token]}_{clusters[c]}" for token, c in pairs], entropies[at]

        values, tokens = table.select(
            min_length=self.min_token_length, remove_stopwords=self.remove_stopwords
        )
        keys = tokens * width + cluster_at[table.attribute_of[values]]
        clean_clean = profiles.is_clean_clean
        sides, rows = table.members(values, clean_clean)
        return group_token_keys(keys, sides, rows, table.profile_ids, describe, clean_clean)

    def key_for(self, token: str, attribute: str, source_id: int | None = None) -> str:
        """Return the loose-schema blocking key of ``token`` in ``attribute``."""
        return f"{token}_{self.partitioning.cluster_of(attribute, source_id)}"
