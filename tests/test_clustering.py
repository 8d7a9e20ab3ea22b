"""Tests of the entity clustering algorithms."""

import pytest

from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.clustering.center_clustering import CenterClustering
from repro.clustering.connected_components import ConnectedComponentsClustering
from repro.clustering.merge_center import MergeCenterClustering
from repro.clustering.registry import make_clustering_algorithm
from repro.clustering.unique_mapping import UniqueMappingClustering
from repro.exceptions import ClusteringError
from repro.matching.similarity_graph import SimilarityEdge, SimilarityGraph


def _graph(edges):
    return SimilarityGraph(SimilarityEdge(a, b, score) for a, b, score in edges)


class TestEntityCluster:
    def test_pairs(self):
        cluster = EntityCluster(cluster_id=0, members={3, 1, 2})
        assert cluster.pairs() == {(1, 2), (1, 3), (2, 3)}

    def test_contains_and_size(self):
        cluster = EntityCluster(cluster_id=0, members={1, 2})
        assert 1 in cluster
        assert cluster.size == 2

    def test_clusters_to_pairs(self):
        clusters = [EntityCluster(0, {1, 2}), EntityCluster(1, {3, 4, 5})]
        assert clusters_to_pairs(clusters) == {(1, 2), (3, 4), (3, 5), (4, 5)}


class TestConnectedComponents:
    def test_transitivity(self):
        # p1-p2 and p2-p3 matched → all three in one cluster (paper's assumption).
        clusters = ConnectedComponentsClustering().cluster(
            _graph([(1, 2, 0.9), (2, 3, 0.8)])
        )
        assert len(clusters) == 1
        assert clusters[0].members == {1, 2, 3}

    def test_separate_components(self):
        clusters = ConnectedComponentsClustering().cluster(
            _graph([(1, 2, 0.9), (5, 6, 0.7)])
        )
        assert sorted(len(c.members) for c in clusters) == [2, 2]

    def test_empty_graph(self):
        assert ConnectedComponentsClustering().cluster(SimilarityGraph()) == []


class TestCenterClustering:
    def test_no_long_chains(self):
        # A chain 1-2, 2-3, 3-4: center clustering splits it, connected
        # components would merge it entirely.
        clusters = CenterClustering().cluster(
            _graph([(1, 2, 0.9), (2, 3, 0.5), (3, 4, 0.8)])
        )
        largest = max(len(c.members) for c in clusters)
        assert largest < 4

    def test_strongest_edge_respected(self):
        clusters = CenterClustering().cluster(_graph([(1, 2, 0.9)]))
        assert any(c.members == {1, 2} for c in clusters)

    def test_every_node_assigned(self):
        graph = _graph([(1, 2, 0.9), (2, 3, 0.4), (4, 5, 0.7)])
        clusters = CenterClustering().cluster(graph)
        assigned = set().union(*(c.members for c in clusters))
        assert assigned == graph.nodes()


class TestMergeCenter:
    def test_merges_connected_centers(self):
        clusters = MergeCenterClustering().cluster(
            _graph([(1, 2, 0.9), (3, 4, 0.8), (2, 3, 0.7)])
        )
        sizes = sorted(len(c.members) for c in clusters)
        assert sizes[-1] >= 3

    def test_every_node_assigned(self):
        graph = _graph([(1, 2, 0.9), (5, 6, 0.3)])
        clusters = MergeCenterClustering().cluster(graph)
        assert set().union(*(c.members for c in clusters)) == graph.nodes()


class TestUniqueMapping:
    def test_one_to_one(self):
        # Node 1 is similar to both 10 and 11; only the strongest pairing is kept.
        clusters = UniqueMappingClustering().cluster(
            _graph([(1, 10, 0.9), (1, 11, 0.8), (2, 11, 0.7)])
        )
        pair_clusters = [c for c in clusters if c.size == 2]
        assert {frozenset(c.members) for c in pair_clusters} == {
            frozenset({1, 10}),
            frozenset({2, 11}),
        }

    def test_max_cluster_size_two(self):
        clusters = UniqueMappingClustering().cluster(
            _graph([(1, 2, 0.9), (2, 3, 0.8), (3, 4, 0.7)])
        )
        assert max(c.size for c in clusters) == 2

    def test_singletons_kept(self):
        clusters = UniqueMappingClustering().cluster(
            _graph([(1, 2, 0.9), (2, 3, 0.8)])
        )
        assert sum(c.size for c in clusters) == 3


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("connected_components", ConnectedComponentsClustering),
            ("center", CenterClustering),
            ("merge_center", MergeCenterClustering),
            ("unique_mapping", UniqueMappingClustering),
        ],
    )
    def test_known_algorithms(self, name, cls):
        assert isinstance(make_clustering_algorithm(name), cls)

    def test_instance_passthrough(self):
        algorithm = CenterClustering()
        assert make_clustering_algorithm(algorithm) is algorithm

    def test_unknown(self):
        with pytest.raises(ClusteringError):
            make_clustering_algorithm("nope")
