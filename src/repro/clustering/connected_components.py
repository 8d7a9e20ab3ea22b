"""Connected-components clustering — the algorithm SparkER uses (GraphX).

Based on the transitivity assumption: if p1 matches p2 and p2 matches p3 then
p1, p2, p3 are the same entity.  The components are computed driver-side with
union-find (:func:`repro.utils.unionfind.connected_components`).
"""

from __future__ import annotations

from repro.clustering.base import ClusteringAlgorithm, EntityCluster
from repro.matching.similarity_graph import SimilarityGraph
from repro.utils.unionfind import connected_components


class ConnectedComponentsClustering(ClusteringAlgorithm):
    """Transitive-closure clustering over the similarity graph."""

    def cluster(self, graph: SimilarityGraph) -> list[EntityCluster]:
        edges = [edge.pair for edge in graph]
        return self._build_clusters(connected_components(edges, graph.nodes()))
