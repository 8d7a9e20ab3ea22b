"""LSH over attribute value-token sets.

The loose-schema generator groups *attributes* (not profiles) by the
similarity of the values they contain: two attributes that share many value
tokens (e.g. ``name`` in Abt and ``title`` in Buy) should land in the same
partition.  Exact all-pairs Jaccard over attributes is cheap for tens of
attributes but the paper prescribes an LSH-based algorithm so it scales to
very wide, heterogeneous schemas; this module implements MinHash signatures
with banding, exactly as described.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.utils.hashing import MinHasher
from repro.utils.tokenize import tokenize


@dataclass
class AttributeProfile:
    """The token counts collected for one (source, attribute) pair.

    ``value_counts`` maps each token to its number of occurrences over the
    attribute's values: its keys are the token set LSH compares, its counts
    are what the entropy extractor sums per cluster, so one tokenising pass
    over the collection serves both.  ``first_seen`` holds, for each token in
    ``value_counts`` order, the sequence number of the value that introduced
    it, which lets the extractor merge attributes in collection order.
    """

    source_id: int
    attribute: str
    value_counts: dict[str, int] = field(default_factory=dict)
    first_seen: list[int] = field(default_factory=list)

    @property
    def qualified_name(self) -> tuple[int, str]:
        """The (source_id, attribute) key used throughout the loose-schema code."""
        return (self.source_id, self.attribute)

    @property
    def tokens(self) -> KeysView[str]:
        """The distinct tokens of the attribute (a set-like view)."""
        return self.value_counts.keys()

    def add_value(self, value: str, sequence: int = 0) -> None:
        """Record one attribute value, the ``sequence``-th of the collection."""
        counts = self.value_counts
        for token in tokenize(value):
            if token in counts:
                counts[token] += 1
            else:
                counts[token] = 1
                self.first_seen.append(sequence)


def build_attribute_profiles(profiles: ProfileCollection) -> dict[tuple[int, str], AttributeProfile]:
    """Collect the token counts of every (source, attribute) pair of a collection."""
    attribute_profiles: dict[tuple[int, str], AttributeProfile] = {}
    sequence = 0
    for profile in profiles:
        source_id = profile.source_id
        for attribute, value in profile.items():
            key = (source_id, attribute)
            attribute_profile = attribute_profiles.get(key)
            if attribute_profile is None:
                attribute_profile = attribute_profiles[key] = AttributeProfile(
                    source_id=source_id, attribute=attribute
                )
            attribute_profile.add_value(value, sequence)
            sequence += 1
    return attribute_profiles


class AttributeLSH:
    """MinHash + banding LSH over attribute token sets.

    Parameters
    ----------
    num_perm:
        MinHash signature length.
    num_bands:
        Number of LSH bands (must divide ``num_perm``).  More bands → more
        candidate pairs (higher recall, lower precision of the candidates).
    seed:
        Seed of the MinHash family.
    """

    def __init__(self, num_perm: int = 128, num_bands: int = 32, seed: int = 5) -> None:
        self.hasher = MinHasher(num_perm=num_perm, seed=seed)
        self.num_bands = num_bands

    def signatures(
        self, attribute_profiles: dict[tuple[int, str], AttributeProfile]
    ) -> dict[tuple[int, str], np.ndarray]:
        """Compute MinHash signatures of every attribute profile."""
        return {
            key: self.hasher.signature(profile.tokens)
            for key, profile in attribute_profiles.items()
        }

    def candidate_pairs(
        self, signatures: dict[tuple[int, str], np.ndarray]
    ) -> set[tuple[tuple[int, str], tuple[int, str]]]:
        """Return the attribute pairs that collide in at least one LSH band."""
        buckets: dict[int, list[tuple[int, str]]] = {}
        for key, signature in signatures.items():
            for bucket in self.hasher.bands(signature, self.num_bands):
                buckets.setdefault(bucket, []).append(key)

        candidates: set[tuple[tuple[int, str], tuple[int, str]]] = set()
        for members in buckets.values():
            if len(members) < 2:
                continue
            ordered = sorted(members)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    candidates.add((a, b))
        return candidates

    def similarities(
        self,
        attribute_profiles: dict[tuple[int, str], AttributeProfile],
        *,
        use_exact: bool = True,
        cross_source_only: bool = True,
    ) -> dict[tuple[tuple[int, str], tuple[int, str]], float]:
        """Similarity of every LSH-candidate attribute pair.

        Parameters
        ----------
        use_exact:
            When True the Jaccard similarity is computed exactly on the token
            sets of candidate pairs (cheap, since LSH already pruned the
            pairs); otherwise the MinHash estimate is used.
        cross_source_only:
            When True only pairs from different sources are returned, which is
            what attribute alignment needs in clean-clean ER.  For dirty ER
            (single source) this flag has no effect.
        """
        signatures = self.signatures(attribute_profiles)
        sources = {key[0] for key in attribute_profiles}
        single_source = len(sources) < 2
        result: dict[tuple[tuple[int, str], tuple[int, str]], float] = {}
        for a, b in self.candidate_pairs(signatures):
            if cross_source_only and not single_source and a[0] == b[0]:
                continue
            if use_exact:
                tokens_a = attribute_profiles[a].tokens
                tokens_b = attribute_profiles[b].tokens
                union = len(tokens_a | tokens_b)
                similarity = len(tokens_a & tokens_b) / union if union else 0.0
            else:
                similarity = MinHasher.estimate_jaccard(signatures[a], signatures[b])
            result[(a, b)] = similarity
        return result
