"""Base class of blocking strategies and the key-grouping routine they share."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.data.dataset import ProfileCollection
from repro.utils.tokenize import TokenTable


class Blocker(ABC):
    """A blocking strategy maps a profile collection to a block collection."""

    @abstractmethod
    def block(self, profiles: ProfileCollection, table: TokenTable | None = None) -> BlockCollection:
        """Build the block collection for ``profiles``; ``table`` is a token
        table of them (one is built when absent)."""

    def __call__(self, profiles: ProfileCollection) -> BlockCollection:
        return self.block(profiles)


def group_token_keys(
    keys, sides, rows, profile_ids, describe: Callable, clean_clean: bool
) -> BlockCollection:
    """One block per key that induces a comparison, sorted by block name.

    Three aligned columns, one entry per token occurrence: ``keys[i]`` is its
    integer blocking key, ``sides[i]`` its side (1 for a source-1 profile of
    a clean-clean task, else 0) and ``profile_ids[rows[i]]`` its profile
    (``profile_ids`` distinct, in any order).  ``describe(keys)`` gives the
    block names (a list) and entropies (float64) of an int64 key array; it
    is asked only for keys that make a block.  One sort of the membership
    codes ``(2·key + side) · profiles + profile rank`` orders them and drops
    a profile holding a key twice; runs of equal entries say which keys
    induce a comparison, and their runs are gathered into block-name order.
    """
    # Late: the meta-blocking package imports the blocking package.
    from repro.metablocking.backends import expand_ranges

    ids, rank = np.unique(profile_ids, return_inverse=True)  # ids are distinct
    width = max(len(rank), 1)
    codes = np.sort((2 * keys + sides) * width + rank[rows])
    entries, members = np.divmod(codes[np.diff(codes, prepend=-1) != 0], width)
    members = ids[members]
    starts = np.flatnonzero(np.diff(entries, prepend=-1))
    run_entries = entries[starts]
    run_lengths = np.diff(starts, append=len(entries))
    if clean_clean:  # a key's left run directly followed by its right run
        left = np.flatnonzero((np.diff(run_entries) == 1) & (run_entries[1:] & 1 == 1))
        runs = np.stack((left, left + 1), axis=1)
    else:
        runs = np.flatnonzero(run_lengths > 1)[:, None]
    names, entropies = describe(run_entries[runs[:, 0]] >> 1)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    blocks = np.arange(len(by_name)).repeat(runs.shape[1])
    runs = runs[by_name].ravel()
    lengths = run_lengths[runs]
    columns = BlockColumns(
        [names[position] for position in by_name],
        np.asarray(entropies, dtype=np.float64)[by_name],
        np.repeat(2 * blocks + (run_entries[runs] & 1), lengths),
        members[expand_ranges(starts[runs], lengths)],
        np.full(len(by_name), clean_clean),
    )
    return BlockCollection.from_columns(columns, clean_clean=clean_clean)
