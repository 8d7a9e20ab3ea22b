#!/usr/bin/env python3
"""Quickstart: resolve a small product catalog end to end.

Runs the full SparkER pipeline (blocker → entity matcher → entity clusterer)
with the unsupervised default configuration on a synthetic Abt-Buy-like
dataset and prints the per-stage quality report.

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SparkER, SparkERConfig
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.evaluation.report import format_table


def main() -> None:
    # 1. Load (here: generate) a clean-clean dataset with its ground truth.
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=200, seed=42))
    print("dataset:", dataset.summary())

    # 2. Run the pipeline with the unsupervised defaults (loose-schema
    #    blocking, entropy-weighted meta-blocking, Jaccard threshold matcher,
    #    connected-components clustering).
    pipeline = SparkER(SparkERConfig.unsupervised_default())
    result = pipeline.run(dataset.profiles, dataset.ground_truth)

    # 3. Inspect the per-stage metrics (the numbers the SparkER GUI displays):
    #    one execution record per pipeline stage, found by its label.
    print()
    print(format_table(result.pipeline_result.metric_rows(), title="pipeline stages"))
    print("cluster quality:", result.execution("clustering").metrics)

    # 4. Look at a few resolved entities.
    print()
    print("resolved entities (first 3 with more than one profile):")
    shown = 0
    for entity in result.entities:
        if len(entity["profiles"]) < 2:
            continue
        print(f"  entity {entity['entity_id']}: profiles {entity['profiles']}")
        for attribute, values in sorted(entity["attributes"].items()):
            print(f"    {attribute}: {values[0]}")
        shown += 1
        if shown == 3:
            break

    print()
    print("summary:", result.summary())
    executions = result.pipeline_result.executions
    print("stage timings (s):", {e.label: round(e.seconds, 3) for e in executions})


if __name__ == "__main__":
    main()
