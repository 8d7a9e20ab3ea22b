"""Evaluation metrics and reports for every pipeline stage."""

from repro.evaluation.metrics import (
    pair_metrics,
    PairMetrics,
    blocking_metrics,
    clustering_metrics,
)
from repro.evaluation.report import format_table

__all__ = [
    "pair_metrics",
    "PairMetrics",
    "blocking_metrics",
    "clustering_metrics",
    "format_table",
]
