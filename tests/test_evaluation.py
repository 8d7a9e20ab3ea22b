"""Tests of the evaluation metrics and reports."""

import pytest

from repro.clustering.base import EntityCluster
from repro.data.ground_truth import GroundTruth
from repro.evaluation.metrics import blocking_metrics, clustering_metrics, pair_metrics
from repro.evaluation.report import format_table
from repro.exceptions import EvaluationError


class TestPairMetrics:
    def test_perfect(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        metrics = pair_metrics({(1, 2), (3, 4)}, truth)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0

    def test_partial(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        metrics = pair_metrics({(1, 2), (5, 6)}, truth)
        assert metrics.precision == 0.5
        assert metrics.recall == 0.5
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1

    def test_order_insensitive(self):
        truth = GroundTruth([(1, 2)])
        assert pair_metrics({(2, 1)}, truth).recall == 1.0

    def test_empty_prediction(self):
        metrics = pair_metrics(set(), GroundTruth([(1, 2)]))
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_empty_truth_recall_one(self):
        metrics = pair_metrics({(1, 2)}, GroundTruth())
        assert metrics.recall == 1.0
        assert metrics.precision == 0.0

    def test_requires_ground_truth(self):
        with pytest.raises(EvaluationError):
            pair_metrics({(1, 2)}, None)  # type: ignore[arg-type]

    def test_as_dict(self):
        metrics = pair_metrics({(1, 2)}, GroundTruth([(1, 2)]))
        assert metrics.as_dict()["f1"] == 1.0


class TestBlockingMetrics:
    def test_pc_pq_rr(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        metrics = blocking_metrics({(1, 2), (5, 6), (7, 8), (9, 10)}, truth, max_comparisons=100)
        assert metrics["pair_completeness"] == 0.5
        assert metrics["pair_quality"] == 0.25
        assert metrics["reduction_ratio"] == 1 - 4 / 100
        assert metrics["candidate_pairs"] == 4

    def test_zero_max_comparisons(self):
        metrics = blocking_metrics({(1, 2)}, GroundTruth([(1, 2)]), max_comparisons=0)
        assert metrics["reduction_ratio"] == 0.0


class TestClusteringMetrics:
    def test_cluster_pairs_evaluated(self):
        truth = GroundTruth([(1, 2), (2, 3), (1, 3)])
        clusters = [EntityCluster(0, {1, 2, 3}), EntityCluster(1, {9})]
        metrics = clustering_metrics(clusters, truth)
        assert metrics["recall"] == 1.0
        assert metrics["precision"] == 1.0
        assert metrics["clusters"] == 2
        assert metrics["max_cluster_size"] == 3

    def test_over_merging_hurts_precision(self):
        truth = GroundTruth([(1, 2)])
        clusters = [EntityCluster(0, {1, 2, 3, 4})]
        metrics = clustering_metrics(clusters, truth)
        assert metrics["recall"] == 1.0
        assert metrics["precision"] < 0.5

    def test_empty(self):
        metrics = clustering_metrics([], GroundTruth())
        assert metrics["clusters"] == 0


class TestReports:
    def test_format_table(self):
        table = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_columns_are_every_rows_keys(self):
        rows = [{"stage": "a", "x": 1}, {"stage": "b", "recall": 0.5}, {"y": 2}]
        header, rule, *body = format_table(rows).splitlines()
        assert [cell.strip() for cell in header.split("|")] == ["stage", "x", "recall", "y"]
        assert [cell.strip() for cell in body[1].split("|")] == ["b", "", "0.5", ""]
        assert [cell.strip() for cell in body[2].split("|")] == ["", "", "", "2"]

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="nothing")
