#!/usr/bin/env python3
"""Dirty ER: deduplicate a single noisy person registry.

Unlike the clean-clean product scenario, here one source contains multiple
records per real-world person (typos, abbreviated names, missing attributes).
The example runs schema-agnostic blocking + meta-blocking, a Jaccard matcher
and connected-components clustering, then shows how the transitivity
assumption groups whole duplicate clusters together — and compares the
alternative clustering algorithms.

    python examples/dirty_deduplication.py
"""

from __future__ import annotations

from repro import SparkER, SparkERConfig
from repro.clustering import make_clustering_algorithm
from repro.core.blocker import Blocker
from repro.core.entity_matcher import EntityMatcher
from repro.core.config import MatcherConfig
from repro.data.synthetic import generate_dirty_persons
from repro.evaluation.metrics import clustering_metrics
from repro.evaluation.report import format_table


def main() -> None:
    dataset = generate_dirty_persons(num_entities=200, max_duplicates=4, seed=19)
    print("dataset:", dataset.summary())

    # End-to-end pipeline with a schema-agnostic configuration (a single
    # source has a single schema, so the loose-schema generator is unneeded).
    config = SparkERConfig.schema_agnostic()
    config.matcher.similarity = "jaccard"
    config.matcher.threshold = 0.5
    result = SparkER(config).run(dataset.profiles, dataset.ground_truth)

    print()
    print(format_table(result.pipeline_result.metric_rows(), title="pipeline stages"))

    large_clusters = [c for c in result.clusters if c.size >= 3]
    print(f"\nclusters with 3+ duplicate records: {len(large_clusters)}")
    for cluster in large_clusters[:3]:
        print(f"  cluster {cluster.cluster_id}:")
        for profile_id in sorted(cluster.members):
            profile = dataset.profiles[profile_id]
            print(f"    {profile.original_id}: {profile.value_of('full_name')}")

    # Compare clustering algorithms on the same similarity graph.
    blocker_report = Blocker(config.blocker).run(dataset.profiles)
    graph = EntityMatcher(MatcherConfig(similarity="jaccard", threshold=0.5)).match(
        dataset.profiles, sorted(blocker_report.candidate_pairs)
    )
    rows = []
    for name in ("connected_components", "center", "merge_center"):
        clusters = make_clustering_algorithm(name).cluster(graph)
        rows.append({"algorithm": name, **clustering_metrics(clusters, dataset.ground_truth)})
    print()
    print(format_table(rows, title="clustering algorithm comparison"))


if __name__ == "__main__":
    main()
