"""The loose-schema generator by its definition, on Python sets: an oracle.

Attribute profiles are ``{token: count}`` dicts built value by value with
:func:`~repro.utils.text.split_words`.  Attribute partitioning is the
Jaccard of the token sets of every cross-source pair (every pair when the
collection has one source), a threshold, each attribute's best match (ties
to the smaller ``(source, attribute)`` key), the transitive closure of those
pairs and a blob of the rest.  The entropy extractor merges the dicts
cluster by cluster in collection order.  The column path must equal it bit
for bit: similarities, partitions and entropies.
"""

from __future__ import annotations

from operator import itemgetter

from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.looseschema.attributes import AttributeProfile
from repro.looseschema.entropy import shannon_entropy
from repro.utils.text import split_words


def attribute_profiles(profiles) -> dict[tuple[int, str], AttributeProfile]:
    """Every (source, attribute) key in first-seen order, with its token
    counts and, per token, the collection-wide number of its first value."""
    result: dict[tuple[int, str], AttributeProfile] = {}
    value_number = 0
    for profile in profiles:
        for attribute, value in profile.items():
            key = (profile.source_id, attribute)
            attribute_profile = result.setdefault(key, AttributeProfile(*key))
            for token in split_words(value):
                if token not in attribute_profile.value_counts:
                    attribute_profile.value_counts[token] = 0
                    attribute_profile.first_seen.append(value_number)
                attribute_profile.value_counts[token] += 1
            value_number += 1
    return result


def similarities(profiles: dict) -> dict:
    """Jaccard of the token sets of every attribute pair ``(a, b)``, ``a < b``:
    only cross-source pairs when there are several sources, else all pairs."""
    keys = sorted(profiles)
    dirty = len({source for source, _attribute in keys}) < 2
    result = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if dirty or a[0] != b[0]:
                tokens_a, tokens_b = set(profiles[a].tokens), set(profiles[b].tokens)
                union = len(tokens_a | tokens_b)
                result[(a, b)] = len(tokens_a & tokens_b) / union if union else 0.0
    return result


def best_matches(similarities: dict) -> set:
    """Per attribute, the pair to its most similar partner; a tie goes to
    the smallest ``(source, attribute)`` partner."""
    partners: dict = {}
    for (a, b), similarity in similarities.items():
        partners.setdefault(a, []).append((similarity, b))
        partners.setdefault(b, []).append((similarity, a))
    pairs = set()
    for attribute, scored in partners.items():
        top = max(similarity for similarity, _partner in scored)
        partner = min(partner for similarity, partner in scored if similarity == top)
        pairs.add(tuple(sorted((attribute, partner))))
    return pairs


def closure(pairs: set) -> list:
    """The connected components of the pairs, as sets, by repeated merging."""
    components: list = []
    for a, b in pairs:
        touching = [c for c in components if a in c or b in c]
        merged = {a, b}.union(*touching)
        components = [c for c in components if c not in touching] + [merged]
    return components


def partition(threshold: float, profiles: dict) -> AttributePartitioning:
    """Threshold → best match per attribute → transitive closure → blob."""
    if threshold >= 1.0:
        return AttributePartitioning(clusters={0: set(profiles)})
    kept = {
        pair: similarity
        for pair, similarity in similarities(profiles).items()
        if similarity >= threshold and similarity > 0.0
    }
    clusters = closure(best_matches(kept))
    clustered = set().union(*clusters)
    partitioning = AttributePartitioning()
    partitioning.clusters[partitioning.blob_cluster_id] = set(profiles) - clustered
    for index, members in enumerate(sorted(clusters, key=sorted), start=1):
        partitioning.clusters[index] = members
    return partitioning


def entropies(profiles: dict, partitioning: AttributePartitioning, *, normalize: bool = True):
    """Per cluster: the Shannon entropy of its merged token counts, summed in
    the order the tokens arrive in the collection."""
    arrivals: dict[int, list] = {cluster_id: [] for cluster_id in partitioning.clusters}
    cluster_of = partitioning.cluster_by_attribute()
    for key, profile in profiles.items():
        cluster_id = cluster_of.get(key, partitioning.blob_cluster_id)
        arrivals.setdefault(cluster_id, []).extend(
            zip(profile.first_seen, profile.value_counts.items())
        )
    result = {}
    for cluster_id, entries in arrivals.items():
        entries.sort(key=itemgetter(0))
        token_counts: dict[str, int] = {}
        for _sequence, (token, count) in entries:
            token_counts[token] = token_counts.get(token, 0) + count
        result[cluster_id] = shannon_entropy(token_counts.values())
    maximum = max(result.values(), default=0.0)
    if normalize and maximum > 0:
        result = {cluster_id: entropy / maximum for cluster_id, entropy in result.items()}
    return result
