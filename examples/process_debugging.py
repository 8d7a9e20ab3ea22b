#!/usr/bin/env python3
"""The supervised process-debugging workflow of the demo (Figure 6).

Replays the demo storyline programmatically:

1. sample the input (K seed profiles + likely matches + random profiles),
2. try the attribute-partitioning threshold at 1.0 (schema-agnostic blob),
3. lower it to 0.3 and watch candidate pairs drop,
4. manually split the attribute clusters and watch ground-truth pairs get lost,
5. inspect *why* they were lost (shared blocking keys),
6. enable meta-blocking with entropy for a further large reduction,
7. apply the tuned configuration to the full dataset in batch mode.

    python examples/process_debugging.py
"""

from __future__ import annotations

from repro import DebugSession, SparkERConfig
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like


def main() -> None:
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=300, seed=21))
    print("full dataset:", dataset.summary())

    config = SparkERConfig.unsupervised_default()
    config.sampling.num_seeds = 30   # K of the paper
    config.sampling.per_seed = 10    # k of the paper

    session = DebugSession(dataset.profiles, dataset.ground_truth, config, sample=True)
    print("debug sample:", session.sample.summary())

    # (a) threshold = 1.0: one blob cluster, schema-agnostic blocking.
    step_a = session.try_threshold(1.0, label="(a) threshold=1.0")
    print("\n(a) every attribute in the blob cluster:")
    for line in step_a.partitioning.describe():
        print("   " + line)

    # (b) threshold = 0.3: clusters appear; fewer candidates, precision up.
    step_b = session.try_threshold(0.3, label="(b) threshold=0.3")
    print("\n(b) clusters at threshold 0.3:")
    for line in step_b.partitioning.describe():
        print("   " + line)

    # (c) manual edit: put every attribute in its own cluster (a bad idea).
    manual = session.current_partitioning(0.3)
    next_cluster = max(manual.clusters) + 1
    for source, attribute in sorted(set().union(*manual.clusters.values())):
        manual.move_attribute(attribute, source, next_cluster)
        next_cluster += 1
    step_c = session.try_partitioning(manual, label="(c) manual split")

    # (d) debug the lost pairs of the manual configuration.
    print("\n(d) why did the manual split lose pairs?")
    for explanation in session.explain_lost_pairs(step_c, limit=2):
        print(explanation.render())

    # (e) meta-blocking with entropy.
    session.try_meta_blocking(threshold=0.3, use_entropy=True, label="(e) meta-blocking+entropy")

    print()
    print(session.history_table())

    # Batch mode: apply the tuned configuration to the full dataset.
    print("\napplying the tuned configuration to the full dataset (batch mode)...")
    result = session.apply_to_full_dataset(threshold=0.3, use_entropy=True)
    print("batch run summary:", result.summary())
    print("final cluster quality:", result.execution("clustering").metrics)


if __name__ == "__main__":
    main()
