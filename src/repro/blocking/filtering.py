"""Block filtering: remove each profile from its largest blocks.

Per the paper: *Block Filtering removes each profile from the largest 20 % of
the blocks in which it appears, increasing precision without affecting
recall.*  Formally each profile is retained only in the smallest
``ceil(ratio * |blocks(p)|)`` blocks it appears in (with ``ratio = 0.8``),
following Papadakis et al.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.blocking.block import Block, BlockCollection, BlockColumns
from repro.exceptions import BlockingError


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
        """Return a new collection where oversized memberships are dropped
        (column-backed stays column-backed; the object path is the definition)."""
        if blocks.columns is not None:
            return BlockCollection.from_columns(
                self._filter_columns(blocks.columns, blocks.clean_clean),
                clean_clean=blocks.clean_clean,
            )
        # Once per block: its cardinality, and a count for each profile in it
        # (a profile listed on both sides of a block is in that block once).
        cardinality, block_counts = [], Counter()
        for block in blocks:
            source0, source1 = block.profiles_source0, block.profiles_source1
            cardinality.append((block.num_comparisons(), len(source0) + len(source1)))
            block_counts.update(source0)
            block_counts.update(source1 - source0)
        # How many blocks each profile may stay in.
        ratio = self.ratio
        quota = {
            profile_id: max(1, math.ceil(ratio * count))
            for profile_id, count in block_counts.items()
        }

        def take(profile_ids: set[int]) -> set[int]:
            staying = set()
            for profile_id in profile_ids:
                left = quota[profile_id]
                if left:
                    quota[profile_id] = left - 1
                    staying.add(profile_id)
            return staying

        # Visit blocks smallest first (comparison cardinality, then size, then
        # position): a profile stays in the blocks that reach it while its
        # quota lasts, i.e. in its smallest ones.
        kept: list[Block | None] = [None] * len(blocks)
        for index in sorted(range(len(blocks)), key=cardinality.__getitem__):
            block = blocks[index]
            source0, source1 = block.profiles_source0, block.profiles_source1
            keep0 = take(source0)
            if source0.isdisjoint(source1):
                keep1 = take(source1)
            else:  # a profile listed on both sides stays on both or on neither
                keep1 = take(source1 - source0) | (source1 & keep0)
            clean_clean = block.is_clean_clean
            if (keep0 and keep1) if clean_clean else len(keep0) > 1:
                kept[index] = Block(block.key, keep0, keep1, block.entropy, clean_clean)
        return BlockCollection(
            (block for block in kept if block is not None), clean_clean=blocks.clean_clean
        )

    def _filter_columns(self, columns: BlockColumns, clean_clean: bool) -> BlockColumns:
        """Rank each profile's memberships by block order, keep its quota."""
        entries, members = columns.entries, columns.members
        sizes, comparisons = columns.cardinalities(clean_clean)
        # Smallest block first: comparison cardinality, then size, then position.
        block_rank = np.empty(len(sizes), dtype=np.int64)
        block_rank[np.lexsort((sizes, comparisons))] = np.arange(len(sizes))
        _ids, profile, counts = np.unique(members, return_inverse=True, return_counts=True)
        by_profile = np.lexsort((block_rank[entries >> 1], profile))
        place = np.arange(len(members)) - np.repeat(np.cumsum(counts) - counts, counts)
        quota = np.maximum(1, np.ceil(self.ratio * counts))
        staying = np.empty(len(members), dtype=bool)
        staying[by_profile] = place < np.repeat(quota, counts)
        kept = BlockColumns(columns.keys, columns.entropies, entries[staying], members[staying])
        return kept.select(kept.cardinalities(clean_clean)[1] > 0)

    def __call__(self, blocks: BlockCollection) -> BlockCollection:
        return self.filter(blocks)
