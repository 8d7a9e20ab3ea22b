"""Quality metrics shared by blocking, matching and clustering evaluation.

Every stage of the pipeline produces a set of pairs (candidate pairs after
blocking, matched pairs after matching, within-cluster pairs after
clustering); all of them are evaluated against the ground truth with the same
precision / recall / F1 machinery.  Blocking additionally reports the
reduction ratio against the naive all-pairs comparison count.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.blocking.pairs import CandidatePairs
from repro.blocking.stats import pair_stats
from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.data.ground_truth import GroundTruth, canonical_pair
from repro.exceptions import EvaluationError


@dataclass
class PairMetrics:
    """Precision / recall / F1 of a pair set against the ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for reports."""
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
        }


def pair_metrics(
    predicted_pairs: Iterable[tuple[int, int]],
    ground_truth: GroundTruth,
) -> PairMetrics:
    """Compare a predicted pair set with the ground truth."""
    if ground_truth is None:
        raise EvaluationError("pair_metrics requires a ground truth")
    predicted = {canonical_pair(a, b) for a, b in predicted_pairs}
    truth = ground_truth.pairs()
    true_positives = len(predicted & truth)
    return PairMetrics(
        true_positives=true_positives,
        false_positives=len(predicted) - true_positives,
        false_negatives=len(truth) - true_positives,
    )


def blocking_metrics(
    candidate_pairs: Iterable[tuple[int, int]],
    ground_truth: GroundTruth,
    max_comparisons: int,
) -> dict[str, float]:
    """Blocking-specific metrics: pair completeness, pair quality, reduction ratio.

    * *pair completeness* (PC) is the recall of the candidate set,
    * *pair quality* (PQ) is its precision,
    * *reduction ratio* (RR) is 1 - |candidates| / |all-pairs comparisons|.

    The counts come from :func:`~repro.blocking.stats.pair_stats`, as the
    pipeline's stage rows do (they round recall to 4 places, these to 6).
    """
    pairs = candidate_pairs
    if not isinstance(pairs, CandidatePairs):  # its rows are canonical already
        pairs = {canonical_pair(a, b) for a, b in candidate_pairs}
    stats = pair_stats(pairs, ground_truth, max_comparisons)
    return {
        "pair_completeness": round(stats.recall, 6),
        "pair_quality": round(stats.precision, 6),
        "reduction_ratio": round(stats.reduction_ratio, 6),
        "candidate_pairs": stats.num_candidate_pairs,
        "f1": round(stats.f1, 6),
    }


def clustering_metrics(
    clusters: Iterable[EntityCluster],
    ground_truth: GroundTruth,
) -> dict[str, float]:
    """Evaluate entity clusters by the pairs they assert (pairwise P/R/F1)."""
    cluster_list = list(clusters)
    metrics = pair_metrics(clusters_to_pairs(cluster_list), ground_truth)
    sizes = [cluster.size for cluster in cluster_list]
    return {
        "precision": round(metrics.precision, 6),
        "recall": round(metrics.recall, 6),
        "f1": round(metrics.f1, 6),
        "clusters": len(cluster_list),
        "max_cluster_size": max(sizes) if sizes else 0,
        "mean_cluster_size": round(sum(sizes) / len(sizes), 4) if sizes else 0.0,
    }
