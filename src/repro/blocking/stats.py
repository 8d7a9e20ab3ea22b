"""Blocking quality statistics.

The demo GUI (Figure 6) shows, after every configuration change: the number of
blocks, the number of candidate pairs, recall (pairs completeness), precision
(pairs quality) and the list of lost ground-truth pairs.  This module computes
all of them from a block collection and the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.blocking.pairs import CandidatePairs, pair_columns
from repro.data.ground_truth import GroundTruth


@dataclass
class BlockingStats:
    """Quality statistics of one blocking collection."""

    num_blocks: int
    num_candidate_pairs: int
    total_comparisons: int
    recall: float
    precision: float
    lost_pairs: set[tuple[int, int]]
    reduction_ratio: float

    @property
    def f1(self) -> float:
        """Harmonic mean of blocking recall and precision."""
        if self.recall + self.precision == 0:
            return 0.0
        return 2 * self.recall * self.precision / (self.recall + self.precision)

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary used by reports and benchmarks."""
        return {
            "blocks": self.num_blocks,
            "candidate_pairs": self.num_candidate_pairs,
            "total_comparisons": self.total_comparisons,
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 6),
            "f1": round(self.f1, 6),
            "lost_pairs": len(self.lost_pairs),
            "reduction_ratio": round(self.reduction_ratio, 4),
        }


def compute_blocking_stats(
    blocks: BlockCollection,
    ground_truth: GroundTruth,
    *,
    max_comparisons: int | None = None,
) -> BlockingStats:
    """Compute recall / precision / reduction statistics of ``blocks``.

    Parameters
    ----------
    blocks:
        The blocking collection to evaluate.
    ground_truth:
        The true matches.
    max_comparisons:
        Number of comparisons of the naive all-pairs solution, used for the
        reduction ratio; when omitted the reduction ratio is reported as 0.
    """
    return pair_stats(
        blocks,
        ground_truth,
        max_comparisons,
        num_blocks=len(blocks),
        total_comparisons=blocks.total_comparisons(),
    )


def pair_stats(
    candidate_pairs, ground_truth: GroundTruth, max_comparisons: int | None, **counts: int
) -> BlockingStats:
    """The statistics of a candidate-pair set (any set, a
    :class:`~repro.blocking.pairs.CandidatePairs`, or the distinct
    comparisons of a :class:`BlockCollection`, whose pair set is not built);
    ``counts`` fills ``num_blocks`` / ``total_comparisons`` when there are blocks."""
    true_pairs = ground_truth.pairs()
    if isinstance(candidate_pairs, BlockCollection):
        found = _paired(true_pairs, candidate_pairs.columns)
        candidates = candidate_pairs.count_distinct_comparisons()
    elif isinstance(candidate_pairs, CandidatePairs):
        found, candidates = _true_among(true_pairs, candidate_pairs), len(candidate_pairs)
    else:
        found, candidates = true_pairs & candidate_pairs, len(candidate_pairs)
    return BlockingStats(
        num_blocks=counts.get("num_blocks", 0),
        num_candidate_pairs=candidates,
        total_comparisons=counts.get("total_comparisons", 0),
        recall=len(found) / len(true_pairs) if true_pairs else 1.0,
        precision=len(found) / candidates if candidates else 0.0,
        lost_pairs=true_pairs - found,
        reduction_ratio=1.0 - candidates / max_comparisons if max_comparisons else 0.0,
    )


def _paired(true_pairs: set[tuple[int, int]], columns: BlockColumns) -> set:
    """The true pairs some block pairs: one id sits in an entry whose
    partner entry — the other side of a clean-clean block, the entry itself
    in a dirty one — holds the other id (so a profile on both sides of a
    block pairs with every other member of it)."""
    # Late: the meta-blocking package imports the blocking package.
    from repro.metablocking.backends import expand_ranges, stable_sort

    truth, entries = list(true_pairs), columns.entries
    ordered, order = stable_sort(columns.members.astype(np.int64))
    partners = np.where(columns.cleans[entries >> 1], entries ^ 1, entries)
    span = 2 * len(columns.keys)

    def codes(ids, entry_of):  # ``pair * span + entry`` per entry of each pair's id
        start, stop = ordered.searchsorted(ids), ordered.searchsorted(ids, "right")
        rows = order[expand_ranges(start, stop - start)]
        return np.repeat(np.arange(len(ids)), stop - start) * span + entry_of[rows]

    lower, upper = pair_columns(truth)
    found = np.zeros(len(truth), dtype=bool)
    found[np.intersect1d(codes(lower, entries), codes(upper, partners)) // span] = True
    return set(compress(truth, found.tolist()))


def _true_among(true_pairs: set[tuple[int, int]], pairs: CandidatePairs) -> set:
    """The true pairs among the rows of ``pairs``, which ascend in ``(a, b)``
    with ``a < b``, so their codes ``(a - lo) * span + (b - lo)`` ascend too:
    one searchsorted places every true pair's code (the set path past 2³¹)."""
    if not true_pairs or not len(pairs):
        return set()
    lo = int(pairs.a[0])
    span = int(pairs.b.max()) - lo + 1
    if span >= 2**31:
        return true_pairs & set(pairs)
    codes = (pairs.a - lo) * span + (pairs.b - lo)
    truth = list(true_pairs)
    lower, upper = (column - lo for column in pair_columns(truth))
    known = (lower >= 0) & (upper < span)
    wanted = np.where(known, lower * span + upper, -1)
    at = np.minimum(codes.searchsorted(wanted), len(codes) - 1)
    return set(compress(truth, (known & (codes[at] == wanted)).tolist()))


def block_stage_metrics(
    blocks: BlockCollection,
    ground_truth: GroundTruth | None = None,
    *,
    max_comparisons: int | None = None,
) -> dict[str, object]:
    """The per-stage metric dict of a block-level stage.

    Full quality statistics when a ground truth is available, plain counts
    otherwise (answered from the collection's columns: no pair set, no
    ``Block``), which a pipeline stage records with the pair count deferred.
    """
    if ground_truth is not None:
        return compute_blocking_stats(
            blocks, ground_truth, max_comparisons=max_comparisons
        ).as_dict()
    return {
        "blocks": len(blocks),
        "candidate_pairs": blocks.count_distinct_comparisons(),
        "total_comparisons": blocks.total_comparisons(),
    }


def candidate_pair_stats(
    candidate_pairs: set[tuple[int, int]],
    ground_truth: GroundTruth,
    *,
    max_comparisons: int | None = None,
) -> dict[str, object]:
    """Same statistics but for an explicit candidate-pair set (post meta-blocking)."""
    row = pair_stats(candidate_pairs, ground_truth, max_comparisons).as_dict()
    return {
        key: row[key]
        for key in ("candidate_pairs", "recall", "precision", "lost_pairs", "reduction_ratio")
    }
