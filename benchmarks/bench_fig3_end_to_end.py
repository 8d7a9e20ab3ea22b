"""FIG3 — the end-to-end SparkER architecture (Figure 3).

Runs the full pipeline (blocker → entity matcher → entity clusterer) on the
Abt-Buy stand-in in the unsupervised default configuration and in the
schema-agnostic configuration, reporting the per-stage metrics of each run.
"""

from __future__ import annotations

from conftest import print_rows

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER


def _run_pipeline(dataset, config: SparkERConfig) -> dict[str, object]:
    result = SparkER(config).run(dataset.profiles, dataset.ground_truth)
    clusterer = result.execution("clustering").metrics
    matcher = result.execution("matching").metrics
    return {
        "candidate_pairs": result.summary()["candidate_pairs"],
        "matched_pairs": result.summary()["matched_pairs"],
        "clusters": result.summary()["clusters"],
        "match_precision": matcher["precision"],
        "match_recall": matcher["recall"],
        "cluster_f1": clusterer["f1"],
    }


def test_fig3_unsupervised_default(benchmark, abt_buy):
    """End-to-end run with the unsupervised default (BLAST) configuration."""
    row = benchmark(_run_pipeline, abt_buy, SparkERConfig.unsupervised_default())
    row = {"configuration": "unsupervised default (loose schema + entropy)", **row}
    print_rows("FIG3 end-to-end pipeline", [row])
    assert row["cluster_f1"] > 0.7


def test_fig3_schema_agnostic(benchmark, abt_buy):
    """End-to-end run with the purely schema-agnostic configuration."""
    row = benchmark(_run_pipeline, abt_buy, SparkERConfig.schema_agnostic())
    row = {"configuration": "schema-agnostic", **row}
    print_rows("FIG3 end-to-end pipeline (schema-agnostic)", [row])
    assert row["cluster_f1"] > 0.7

