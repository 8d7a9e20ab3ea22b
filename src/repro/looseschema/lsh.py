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
from typing import Any, NamedTuple

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.utils.hashing import MinHasher
from repro.utils.tokenize import TokenTable, token_table


@dataclass
class AttributeProfile:
    """The token counts collected for one (source, attribute) pair.

    ``value_counts`` maps each token to its number of occurrences over the
    attribute's values: its keys are the token set LSH compares, its counts
    are what the entropy extractor sums per cluster.  ``first_seen`` holds,
    for each token in ``value_counts`` order, the sequence number of the
    value that introduced it.  A readable view of one key of
    :class:`AttributeTokens`, which is what the loose-schema code reads.
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


class AttributeTokens(NamedTuple):
    """The distinct forms of every (source, attribute) key of a token table:
    key ``table.attributes[k]`` owns the slots ``cuts[k]:cuts[k + 1]``, its
    form ids ascending.  One stable sort of ``attribute · F + form`` codes."""

    table: TokenTable
    cuts: Any  # per key: its first slot; last: the slot count
    forms: Any  # per slot: its form id
    counts: Any  # per slot: its occurrences in the key's values
    first: Any  # per slot: the table occurrence that introduced it

    @classmethod
    def of(cls, table: TokenTable) -> "AttributeTokens":
        from repro.metablocking.backends import stable_sort  # late: an import cycle
        width = max(len(table.forms), 1)
        codes, order = stable_sort(table.attribute_of[table.value_of] * width + table.token_ids)
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        attributes, forms = np.divmod(codes[starts], width)
        cuts = np.searchsorted(attributes, np.arange(len(table.attributes) + 1))
        return cls(table, cuts, forms, np.diff(starts, append=len(codes)), order[starts])

    def runs(self) -> dict[tuple[int, str], Any]:
        """Key → its sorted form ids (the set LSH compares)."""
        cuts = self.cuts.tolist()
        return {k: self.forms[lo:hi] for k, lo, hi in zip(self.table.attributes, cuts, cuts[1:])}


def build_attribute_profiles(profiles: ProfileCollection) -> dict[tuple[int, str], AttributeProfile]:
    """The token counts of every (source, attribute) pair of a collection, as
    :class:`AttributeProfile` objects: a view of :class:`AttributeTokens`
    with each key's tokens in the order they first occur."""
    columns = AttributeTokens.of(token_table(profiles))
    table, cuts = columns.table, columns.cuts.tolist()
    order = np.lexsort((columns.first, np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))))
    tokens = [table.forms[form] for form in columns.forms[order].tolist()]
    counts = columns.counts[order].tolist()
    first_seen = table.value_of[columns.first[order]].tolist()
    return {
        key: AttributeProfile(
            key[0], key[1], dict(zip(tokens[lo:hi], counts[lo:hi])), first_seen[lo:hi]
        )
        for key, lo, hi in zip(table.attributes, cuts, cuts[1:])
    }


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

    def signatures(self, columns: AttributeTokens) -> dict[tuple[int, str], np.ndarray]:
        """MinHash signature of every key, each distinct form hashed once."""
        used = np.zeros(len(columns.table.forms), dtype=bool)
        used[columns.forms] = True
        rank = np.cumsum(used) - 1  # a used form's row in ``permuted``
        forms = map(columns.table.forms.__getitem__, np.flatnonzero(used).tolist())
        # Every permutation of every used form, then one row gather per key.
        permuted = self.hasher.permuted(forms)
        empty = self.hasher.signature(())
        return {
            key: permuted[rank[run]].min(axis=0).astype(np.uint64) if len(run) else empty
            for key, run in columns.runs().items()
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
        columns: AttributeTokens,
        *,
        use_exact: bool = True,
        cross_source_only: bool = True,
    ) -> dict[tuple[tuple[int, str], tuple[int, str]], float]:
        """Similarity of every LSH-candidate attribute pair.

        Parameters
        ----------
        use_exact:
            When True the Jaccard similarity is computed exactly on the token
            form-id runs of candidate pairs (cheap, since LSH already pruned
            the pairs); otherwise the MinHash estimate is used.
        cross_source_only:
            When True only pairs from different sources are returned, which is
            what attribute alignment needs in clean-clean ER.  For dirty ER
            (single source) this flag has no effect.
        """
        signatures = self.signatures(columns)
        runs = columns.runs()
        single_source = len({key[0] for key in runs}) < 2
        result: dict[tuple[tuple[int, str], tuple[int, str]], float] = {}
        for a, b in self.candidate_pairs(signatures):
            if cross_source_only and not single_source and a[0] == b[0]:
                continue
            if use_exact:
                run_a, run_b = runs[a], runs[b]
                common = int(np.count_nonzero(np.isin(run_a, run_b, assume_unique=True)))
                union = len(run_a) + len(run_b) - common
                similarity = common / union if union else 0.0
            else:
                similarity = MinHasher.estimate_jaccard(signatures[a], signatures[b])
            result[(a, b)] = similarity
        return result
