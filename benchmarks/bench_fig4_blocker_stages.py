"""FIG4 — the blocker sub-module pipeline (Figure 4).

Reports, for every stage of the blocker (token blocking → purging → filtering
→ meta-blocking), the number of blocks, candidate pairs, recall (pair
completeness) and precision (pair quality), in both the schema-agnostic and
the loose-schema configuration.
"""

from __future__ import annotations

from conftest import print_rows

from repro.core.blocker import Blocker
from repro.core.config import BlockerConfig


def _stage_rows(dataset, config: BlockerConfig) -> list[dict[str, object]]:
    report = Blocker(config).run(dataset.profiles, dataset.ground_truth)
    rows = []
    for row in report.metric_rows():
        if row["stage"] == "loose_schema":
            continue
        rows.append(
            {
                "stage": row["stage"],
                "blocks": row.get("blocks", ""),
                "candidate_pairs": row["candidate_pairs"],
                "recall": row["recall"],
                "precision": row["precision"],
            }
        )
    return rows


def test_fig4_schema_agnostic_stages(benchmark, abt_buy):
    """Blocker stages with schema-agnostic token blocking."""
    config = BlockerConfig(use_loose_schema=False, use_entropy=False)
    rows = benchmark(_stage_rows, abt_buy, config)
    print_rows("FIG4 blocker stages (schema-agnostic)", rows)
    pairs = [row["candidate_pairs"] for row in rows]
    assert pairs == sorted(pairs, reverse=True), "every stage must reduce candidates"
    assert rows[0]["recall"] > 0.95
    assert rows[-1]["precision"] > rows[0]["precision"]


def test_fig4_loose_schema_stages(benchmark, abt_buy):
    """Blocker stages with the loose-schema (BLAST) configuration."""
    config = BlockerConfig(use_loose_schema=True, attribute_threshold=0.1, use_entropy=True)
    rows = benchmark(_stage_rows, abt_buy, config)
    print_rows("FIG4 blocker stages (loose schema + entropy)", rows)
    assert rows[-1]["recall"] > 0.85


def test_fig4_final_candidates_blast_vs_agnostic(benchmark, abt_buy):
    """BLAST ends with fewer candidate pairs than the schema-agnostic blocker."""

    def run():
        agnostic = Blocker(BlockerConfig(use_loose_schema=False, use_entropy=False)).run(
            abt_buy.profiles, abt_buy.ground_truth
        )
        blast = Blocker(
            BlockerConfig(use_loose_schema=True, attribute_threshold=0.1, use_entropy=True)
        ).run(abt_buy.profiles, abt_buy.ground_truth)
        truth = abt_buy.ground_truth.pairs()
        return [
            {
                "configuration": "schema-agnostic",
                "candidate_pairs": len(agnostic.candidate_pairs),
                "recall": round(len(agnostic.candidate_pairs & truth) / len(truth), 4),
            },
            {
                "configuration": "loose schema + entropy (BLAST)",
                "candidate_pairs": len(blast.candidate_pairs),
                "recall": round(len(blast.candidate_pairs & truth) / len(truth), 4),
            },
        ]

    rows = benchmark(run)
    print_rows("FIG4 final candidate pairs: BLAST vs schema-agnostic", rows)
    assert rows[1]["candidate_pairs"] <= rows[0]["candidate_pairs"]
