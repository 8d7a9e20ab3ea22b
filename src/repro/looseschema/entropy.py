"""Entropy extractor (BLAST loose-schema generator, step 2).

Computes the Shannon entropy of each attribute cluster over the distribution
of the tokens appearing in the cluster's values.  Clusters with a high
variability of values (e.g. product names) get high entropy; clusters with few
distinct values (e.g. prices rounded to bands, years, venues) get low entropy.
The BLAST meta-blocking multiplies edge weights by the entropy of the block's
cluster, so equalities found in high-entropy clusters count more.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.looseschema.attributes import AttributeTokens
from repro.utils.tokenize import TokenTable, table_for


def shannon_entropy(counts: Iterable[int]) -> float:
    """Shannon entropy (base 2) of a discrete distribution given by counts."""
    counts = [c for c in counts if c > 0]
    total = sum(counts)
    if total == 0 or len(counts) <= 1:
        return 0.0
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


class EntropyExtractor:
    """Computes per-cluster Shannon entropies.

    Parameters
    ----------
    normalize:
        When True (default) entropies are rescaled so the maximum cluster
        entropy is 1.0, which keeps the entropy factor comparable across
        datasets (the paper's Figure 2 uses values in [0, 1]).
    """

    def __init__(self, *, normalize: bool = True) -> None:
        self.normalize = normalize

    def extract(
        self,
        profiles: ProfileCollection,
        partitioning: AttributePartitioning,
        table: TokenTable | None = None,
    ) -> dict[int, float]:
        """Return cluster id → entropy for every cluster of ``partitioning``;
        ``table`` is a token table of ``profiles`` (one is built when absent)."""
        return self.extract_columns(AttributeTokens.of(table_for(profiles, table)), partitioning)

    def extract_columns(
        self, columns: AttributeTokens, partitioning: AttributePartitioning
    ) -> dict[int, float]:
        """Same as :meth:`extract` but summing prebuilt attribute columns."""
        from repro.metablocking.backends import stable_sort  # late: an import cycle
        cluster_of, blob_id = partitioning.cluster_by_attribute(), partitioning.blob_cluster_id
        position = {cluster_id: at for at, cluster_id in enumerate(partitioning.clusters)}
        cluster_at = np.array(
            [position.setdefault(cluster_of.get(key, blob_id), len(position))
             for key in columns.table.attributes],
            dtype=np.int64,
        )
        # One (cluster, form) entry per form of a cluster: its summed count and
        # the first occurrence of the form in any of the cluster's attributes.
        width = max(len(columns.table.forms), 1)
        codes, order = stable_sort(np.repeat(cluster_at * width, np.diff(columns.cuts)) + columns.forms)
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        clusters = codes[starts] // width
        counts = np.add.reduceat(columns.counts[order], starts)
        first = np.minimum.reduceat(columns.first[order], starts)
        # The entropy is a float sum, so the order of its terms is part of the
        # result (and an ulp moves pruning decisions downstream): sum each
        # cluster's counts in the order its forms arrive in the collection.
        arrival = stable_sort(clusters * max(len(columns.table.value_of), 1) + first)[1]
        counts = counts[arrival].tolist()
        cuts = np.searchsorted(clusters[arrival], np.arange(len(position) + 1)).tolist()
        entropies = {
            cluster_id: shannon_entropy(counts[lo:hi])
            for cluster_id, lo, hi in zip(position, cuts, cuts[1:])
        }

        if self.normalize:
            maximum = max(entropies.values(), default=0.0)
            if maximum > 0:
                entropies = {
                    cluster_id: entropy / maximum
                    for cluster_id, entropy in entropies.items()
                }
        return entropies

    def __call__(
        self, profiles: ProfileCollection, partitioning: AttributePartitioning
    ) -> dict[int, float]:
        return self.extract(profiles, partitioning)
