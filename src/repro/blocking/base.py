"""Base class of blocking strategies and the key-grouping routine they share."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile


class Blocker(ABC):
    """A blocking strategy maps a profile collection to a block collection."""

    @abstractmethod
    def block(self, profiles: ProfileCollection) -> BlockCollection:
        """Build the block collection for ``profiles``."""

    def __call__(self, profiles: ProfileCollection) -> BlockCollection:
        return self.block(profiles)


def block_by_keys(
    profiles: ProfileCollection,
    keys_of: Callable[[EntityProfile], Iterable[Hashable]],
    describe: Callable[[Hashable], tuple[str, float]],
) -> BlockCollection:
    """One block per key that induces a comparison, sorted by block key.

    ``keys_of(profile)`` yields the profile's distinct blocking keys and
    ``describe(key)`` names a key's block and gives its entropy.  The
    profiles stream straight into the grouping, whose result is
    column-backed (:func:`_group_into_columns`).
    """
    memberships = (
        (profile.profile_id, profile.source_id, keys_of(profile)) for profile in profiles
    )
    return _group_into_columns(memberships, describe, profiles.is_clean_clean)


def _group_into_columns(memberships, describe, clean_clean: bool) -> BlockCollection:
    """Group ``(profile_id, source_id, keys)`` records into block columns.

    Keys are numbered as first met and one flat id list grows by one
    ``extend`` per record; the rest is array work: counts per (key, side)
    pick the keys that induce a comparison, those are ranked by block name,
    and one ``lexsort`` orders the memberships by ``(entry, profile id)``.
    """
    key_ids: dict = defaultdict()
    key_ids.default_factory = key_ids.__len__  # a new key takes the next id
    flat: list[int] = []
    ends, owners, on_right = [], [], []
    for profile_id, source_id, keys in memberships:
        flat.extend(map(key_ids.__getitem__, keys))
        ends.append(len(flat))
        owners.append(profile_id)
        on_right.append(clean_clean and source_id == 1)
    per_record = np.diff(np.array(ends, dtype=np.int64), prepend=0)
    members = np.repeat(np.array(owners, dtype=np.int64), per_record)
    entries = 2 * np.array(flat, dtype=np.int64) + np.repeat(
        np.array(on_right, dtype=np.int64), per_record
    )
    lengths = np.bincount(entries, minlength=2 * len(key_ids))
    left, right = lengths[0::2], lengths[1::2]
    valid = (left * right > 0) if clean_clean else left > 1
    described = [describe(key) for key, ok in zip(key_ids, valid.tolist()) if ok]
    names = [name for name, _entropy in described]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    block_of_key = np.full(len(key_ids), -1, dtype=np.int64)
    block_of_key[np.flatnonzero(valid)[by_name]] = np.arange(len(by_name))
    blocks = block_of_key[entries >> 1]
    staying = blocks >= 0
    members = members[staying]
    entries = 2 * blocks[staying] + (entries[staying] & 1)
    order = np.lexsort((members, entries))
    columns = BlockColumns(
        [names[position] for position in by_name],
        np.array([described[position][1] for position in by_name], dtype=np.float64),
        entries[order],
        members[order],
    )
    return BlockCollection.from_columns(columns, clean_clean=clean_clean)
