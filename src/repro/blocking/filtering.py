"""Block filtering: remove each profile from its largest blocks.

Per the paper: *Block Filtering removes each profile from the largest 20 % of
the blocks in which it appears, increasing precision without affecting
recall.*  Formally each profile is retained only in the smallest
``ceil(ratio * |blocks(p)|)`` blocks it appears in (with ``ratio = 0.8``),
following Papadakis et al.  The one algorithm ranks the memberships of the
collection's :class:`~repro.blocking.block.BlockColumns` with packed-code
sorts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.exceptions import BlockingError
from repro.metablocking.backends import stable_sort, unique_inverse


@dataclass
class BlockFiltering:
    """Keep each profile only in its smallest blocks.

    Parameters
    ----------
    ratio:
        Fraction of each profile's blocks to *keep* (0.8 keeps the smallest
        80 %, i.e. removes the profile from its largest 20 % of blocks, the
        paper's default).
    """

    ratio: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise BlockingError("ratio must be in (0, 1]")

    def filter(self, blocks: BlockCollection) -> BlockCollection:
        """Return a new collection where oversized memberships are dropped.

        Each profile's distinct ``(profile, block rank)`` codes, sorted, list
        its blocks smallest first (comparisons, then size, then position);
        the code at its quota is the last that stays.  A profile on both
        sides of a block holds one code there, counts that block once and
        stays on both sides or on neither.  Blocks left without a comparison
        are dropped.
        """
        columns = blocks.columns
        entries, members = columns.entries, columns.members
        sizes, comparisons = columns.cardinalities()
        by_size = stable_sort(sizes)[1]
        block_rank = np.empty(len(by_size), dtype=np.int64)
        block_rank[by_size[stable_sort(comparisons[by_size])[1]]] = np.arange(len(by_size))
        profile = unique_inverse(members)[1]
        bits = max(len(by_size) - 1, 0).bit_length()
        codes = (profile << bits) | block_rank[entries >> 1]
        ranked = np.sort(codes)
        repeated = ranked[1:] == ranked[:-1]
        if repeated.any():
            ranked = ranked[np.concatenate(([True], ~repeated))]
        counts = np.bincount(ranked >> bits)
        quota = np.maximum(1, np.ceil(self.ratio * counts)).astype(np.int64)
        staying = codes <= ranked[np.cumsum(counts) - counts + quota - 1][profile]
        kept = BlockColumns(
            columns.keys, columns.entropies, entries[staying], members[staying], columns.cleans
        )
        return BlockCollection.from_columns(
            kept.select(kept.cardinalities()[1] > 0), clean_clean=blocks.clean_clean
        ).keeping_count_of(blocks)

    def __call__(self, blocks: BlockCollection) -> BlockCollection:
        return self.filter(blocks)
