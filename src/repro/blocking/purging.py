"""Block purging: drop the oversized blocks produced by frequent keys.

The paper (Section 2.1) uses the simple rule of Papadakis et al.: *discard all
blocks that contain more than half of the profiles in the collection* — these
correspond to highly frequent blocking keys such as stop-words.  A
comparison-based variant (purge the largest blocks until the marginal cost per
retained comparison stops improving) is provided as well, since the demo lets
the user change the aggressiveness of the purging step.  Both rules are masks
over the per-block counts of the collection's
:class:`~repro.blocking.block.BlockColumns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.blocking.block import BlockCollection
from repro.exceptions import BlockingError


@dataclass
class BlockPurging:
    """Remove the largest blocks of a collection.

    Parameters
    ----------
    max_profile_fraction:
        A block containing more than this fraction of all profiles is purged
        (paper default: 0.5).
    smoothing:
        Optional comparison-based purging factor; when not ``None`` the
        collection is additionally purged with the size-based heuristic of
        Papadakis et al. (purge block sizes whose cumulative comparison
        cardinality grows faster than ``smoothing`` × cumulative block
        cardinality).
    """

    max_profile_fraction: float = 0.5
    smoothing: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.max_profile_fraction <= 1.0:
            raise BlockingError("max_profile_fraction must be in (0, 1]")
        if self.smoothing is not None and self.smoothing <= 0:
            raise BlockingError("smoothing must be positive when given")

    def purge(self, blocks: BlockCollection, num_profiles: int | None = None) -> BlockCollection:
        """Return a new collection without the purged blocks, order kept
        (a mask over the per-block counts of the columns)."""
        if num_profiles is None:
            num_profiles = len(blocks.profile_ids())
        sizes, comparisons = blocks.columns.cardinalities()
        keep = sizes <= self.max_profile_fraction * num_profiles
        if self.smoothing is not None and keep.any():
            keep &= comparisons <= self._cutoff(
                zip(comparisons[keep].tolist(), sizes[keep].tolist())
            )
        return BlockCollection.from_columns(
            blocks.columns.select(keep), clean_clean=blocks.clean_clean
        ).keeping_count_of(blocks)

    # -------------------------------------------------------------- internals
    def _cutoff(self, cardinalities) -> int:
        """Size-based purging: find the block-size cutoff where comparisons explode.

        The blocks' ``(comparisons, size)`` are scanned by ascending comparison
        cardinality; the cutoff is the largest block cardinality at which the
        ratio (cumulative comparisons / cumulative block sizes) still increases
        by at most the smoothing factor.  This reproduces the spirit of
        Papadakis' comparison based purging without requiring duplicate
        annotations.
        """
        ordered = sorted(cardinalities, key=itemgetter(0))
        cumulative_comparisons = 0
        cumulative_size = 0
        best_ratio = float("inf")
        cutoff = ordered[-1][0]
        for comparisons, size in ordered:
            cumulative_comparisons += comparisons
            cumulative_size += size
            if cumulative_size == 0:
                continue
            ratio = cumulative_comparisons / cumulative_size
            if ratio <= best_ratio * self.smoothing:
                best_ratio = min(best_ratio, ratio)
                cutoff = comparisons
        return cutoff

    def __call__(self, blocks: BlockCollection, num_profiles: int | None = None) -> BlockCollection:
        return self.purge(blocks, num_profiles)
