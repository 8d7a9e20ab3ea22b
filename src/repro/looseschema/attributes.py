"""The value tokens of every (source, attribute) key of a collection.

The loose-schema generator groups *attributes* (not profiles) by the
similarity of the values they contain: two attributes that share many value
tokens (e.g. ``name`` in Abt and ``title`` in Buy) should land in the same
partition.  This module holds each key's distinct tokens, as sorted form-id
runs of the run's token table (:class:`AttributeTokens`) and as readable
token-count dicts (:class:`AttributeProfile`).
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.utils.tokenize import TokenTable, token_table


@dataclass
class AttributeProfile:
    """The token counts collected for one (source, attribute) pair.

    ``value_counts`` maps each token to its number of occurrences over the
    attribute's values: its keys are the token set the partitioner compares, its counts
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
        """Key → its sorted form ids (the set the partitioner compares)."""
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
