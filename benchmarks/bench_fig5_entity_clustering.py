"""FIG5 — the entity clusterer (Figure 5).

Benchmarks the connected-components clusterer (the paper's algorithm, computed
with union-find) and the alternative clustering algorithms on similarity
graphs of increasing size.
"""

from __future__ import annotations

import pytest
from conftest import print_rows

from repro.clustering.center_clustering import CenterClustering
from repro.clustering.connected_components import ConnectedComponentsClustering
from repro.clustering.merge_center import MergeCenterClustering
from repro.clustering.unique_mapping import UniqueMappingClustering
from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.evaluation.metrics import clustering_metrics
from repro.matching.matcher import ThresholdMatcher


def _similarity_graph(dataset):
    """Build the matcher output the clusterer consumes (Figure 5's input)."""
    from repro.core.blocker import Blocker
    from repro.core.config import BlockerConfig

    report = Blocker(BlockerConfig(use_loose_schema=False)).run(dataset.profiles)
    matcher = ThresholdMatcher("jaccard", 0.35)
    return matcher.match(dataset.profiles, sorted(report.candidate_pairs))


def test_fig5_connected_components(benchmark, dirty_persons):
    """Connected components on the dirty-persons similarity graph."""
    graph = _similarity_graph(dirty_persons)

    def run():
        clusters = ConnectedComponentsClustering().cluster(graph)
        return clusters

    clusters = benchmark(run)
    metrics = clustering_metrics(clusters, dirty_persons.ground_truth)
    print_rows("FIG5 connected-components clustering (dirty persons)", [metrics])
    assert metrics["recall"] > 0.3
    assert metrics["max_cluster_size"] >= 3


@pytest.mark.parametrize(
    "algorithm,label",
    [
        (ConnectedComponentsClustering(), "connected_components"),
        (CenterClustering(), "center"),
        (MergeCenterClustering(), "merge_center"),
        (UniqueMappingClustering(), "unique_mapping"),
    ],
)
def test_fig5_algorithm_comparison(benchmark, abt_buy, algorithm, label):
    """Clustering-algorithm ablation on the clean-clean similarity graph."""
    graph = _similarity_graph(abt_buy)
    clusters = benchmark(algorithm.cluster, graph)
    metrics = clustering_metrics(clusters, abt_buy.ground_truth)
    print_rows(f"FIG5 clustering algorithm = {label}", [{"algorithm": label, **metrics}])
    assert metrics["f1"] > 0.4


def test_fig5_entity_generation(benchmark, abt_buy):
    """Entity generation: merged attribute values per resolved entity."""

    def run():
        result = SparkER(SparkERConfig.unsupervised_default()).run(
            abt_buy.profiles, abt_buy.ground_truth
        )
        return result.entities

    entities = benchmark(run)
    multi_profile = [e for e in entities if len(e["profiles"]) > 1]
    print_rows(
        "FIG5 entity generation",
        [
            {
                "entities": len(entities),
                "multi_profile_entities": len(multi_profile),
                "example_attributes": sorted(multi_profile[0]["attributes"])[:4]
                if multi_profile
                else [],
            }
        ],
    )
    assert multi_profile, "some entities must merge profiles from both sources"
