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
from operator import itemgetter

from repro.data.dataset import ProfileCollection
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.looseschema.lsh import AttributeProfile, build_attribute_profiles


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
    ) -> dict[int, float]:
        """Return cluster id → entropy for every cluster of ``partitioning``."""
        return self.extract_from_attribute_profiles(
            build_attribute_profiles(profiles), partitioning
        )

    def extract_from_attribute_profiles(
        self,
        attribute_profiles: dict[tuple[int, str], AttributeProfile],
        partitioning: AttributePartitioning,
    ) -> dict[int, float]:
        """Same as :meth:`extract` but summing prebuilt attribute token counts."""
        arrivals: dict[int, list] = {cluster_id: [] for cluster_id in partitioning.clusters}
        cluster_of = partitioning.cluster_by_attribute()
        for key, attribute_profile in attribute_profiles.items():
            cluster_id = cluster_of.get(key, partitioning.blob_cluster_id)
            arrivals.setdefault(cluster_id, []).extend(
                zip(attribute_profile.first_seen, attribute_profile.value_counts.items())
            )

        entropies = {}
        for cluster_id, entries in arrivals.items():
            # The entropy is a float sum, so the order of its terms is part of
            # the result (and an ulp moves pruning decisions downstream): sum
            # in the order the cluster's tokens arrive in the collection.
            entries.sort(key=itemgetter(0))
            token_counts: dict[str, int] = {}
            for _sequence, (token, count) in entries:
                token_counts[token] = token_counts.get(token, 0) + count
            entropies[cluster_id] = shannon_entropy(token_counts.values())

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
