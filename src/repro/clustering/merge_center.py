"""Merge-center clustering (Hassanzadeh et al., VLDB 2009).

Like center clustering, but when an edge connects a node already assigned to a
center with another center, the two centers' clusters are merged.  It sits
between center clustering (no merging) and connected components (merge
everything reachable).
"""

from __future__ import annotations

from repro.clustering.base import ClusteringAlgorithm, EntityCluster
from repro.utils.unionfind import UnionFind
from repro.matching.similarity_graph import SimilarityGraph


class MergeCenterClustering(ClusteringAlgorithm):
    """Center clustering with merging of connected centers."""

    def cluster(self, graph: SimilarityGraph) -> list[EntityCluster]:
        edges = sorted(graph, key=lambda e: (-e.score, e.pair))
        center_of: dict[int, int] = {}
        is_center: set[int] = set()
        merged = UnionFind()

        for edge in edges:
            a, b = edge.pair
            a_assigned = a in center_of
            b_assigned = b in center_of
            if not a_assigned and not b_assigned:
                center_of[a] = a
                is_center.add(a)
                center_of[b] = a
                merged.union(a, b)
            elif a_assigned and not b_assigned:
                center_of[b] = center_of[a]
                merged.union(center_of[a], b)
            elif b_assigned and not a_assigned:
                center_of[a] = center_of[b]
                merged.union(center_of[b], a)
            else:
                # Both assigned: merge the two centers when either endpoint is
                # itself a center (this is the "merge" step of merge-center).
                if a in is_center or b in is_center:
                    merged.union(center_of[a], center_of[b])

        for node in graph.nodes():
            if node not in center_of:
                center_of[node] = node
            merged.add(node)
            merged.union(node, center_of[node])

        assignment = {node: merged.find(node) for node in center_of}
        return self._build_clusters(assignment)
