"""The loose-schema generator on per-attribute token dicts: an oracle.

This is the string path the column code in ``repro.looseschema`` replaced:
attribute profiles are ``{token: count}`` dicts built value by value with
:func:`~repro.utils.text.split_words`, MinHash hashes every token of every
attribute with one ``blake2b`` call each, exact Jaccard intersects Python
sets, and the entropy extractor merges the dicts cluster by cluster in
collection order.  The column path must equal it bit for bit: signatures,
similarities, partitions and entropies.
"""

from __future__ import annotations

import hashlib
import struct
from operator import itemgetter

import numpy as np

from repro.looseschema.attribute_partitioning import AttributePartitioner, AttributePartitioning
from repro.looseschema.entropy import shannon_entropy
from repro.looseschema.lsh import AttributeLSH, AttributeProfile
from repro.utils.hashing import MinHasher
from repro.utils.text import split_words

MERSENNE_PRIME = (1 << 61) - 1
MAX_HASH = (1 << 32) - 1


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


def token_hash(token: str, seed: int) -> int:
    """The low 32 bits of the seeded ``blake2b`` digest of ``repr(token)``."""
    data = repr(token).encode("utf-8", errors="replace")
    digest = hashlib.blake2b(data, digest_size=8, salt=struct.pack("<q", seed)).digest()
    return int.from_bytes(digest, "little") & MAX_HASH


def signature(hasher: MinHasher, tokens) -> np.ndarray:
    """Per permutation ``(a, b)``: the least ``(a·h + b) mod p mod 2³²`` over
    the tokens' hashes ``h`` (uint64 arithmetic, as the family defines it)."""
    hashes = np.array([token_hash(token, hasher.seed) for token in tokens], dtype=np.uint64)
    if not len(hashes):
        return np.full(hasher.num_perm, MAX_HASH, dtype=np.uint64)
    permuted = (hasher._a[:, None] * hashes[None, :] + hasher._b[:, None]) % MERSENNE_PRIME
    return (permuted % (MAX_HASH + 1)).min(axis=1)


def signatures(lsh: AttributeLSH, profiles: dict) -> dict:
    """One MinHash signature per key, hashing each of its tokens."""
    return {key: signature(lsh.hasher, profile.tokens) for key, profile in profiles.items()}


def similarities(
    lsh: AttributeLSH, profiles: dict, *, use_exact: bool = True, cross_source_only: bool = True
) -> dict:
    """Jaccard of the token sets (or the MinHash estimate) of every LSH candidate pair."""
    signed = signatures(lsh, profiles)
    single_source = len({key[0] for key in profiles}) < 2
    result = {}
    for a, b in lsh.candidate_pairs(signed):
        if cross_source_only and not single_source and a[0] == b[0]:
            continue
        if use_exact:
            tokens_a, tokens_b = profiles[a].tokens, profiles[b].tokens
            union = len(tokens_a | tokens_b)
            similarity = len(tokens_a & tokens_b) / union if union else 0.0
        else:
            similarity = MinHasher.estimate_jaccard(signed[a], signed[b])
        result[(a, b)] = similarity
    return result


def partition(partitioner: AttributePartitioner, profiles: dict) -> AttributePartitioning:
    """Threshold → best match per attribute → transitive closure → blob."""
    if partitioner.threshold >= 1.0:
        return AttributePartitioning(clusters={0: set(profiles)})
    kept = {
        pair: similarity
        for pair, similarity in similarities(partitioner.lsh, profiles).items()
        if similarity >= partitioner.threshold and similarity > 0.0
    }
    clusters = partitioner._transitive_closure(partitioner._best_match_pairs(kept))
    clustered = set().union(*clusters) if clusters else set()
    partitioning = AttributePartitioning()
    partitioning.clusters[partitioning.blob_cluster_id] = set(profiles) - clustered
    for index, members in enumerate(sorted(clusters, key=lambda c: sorted(c)), start=1):
        partitioning.clusters[index] = set(members)
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
