"""Connected-components clustering — the algorithm SparkER uses (GraphX).

Based on the transitivity assumption: if p1 matches p2 and p2 matches p3 then
p1, p2, p3 are the same entity.  Like GraphX, the components are labelled
by min-label propagation over the edge columns: every round hooks each
label under the smallest label across its edges, then pointer jumping
flattens the label forest, until both endpoints of every edge agree.  Each
component ends labelled with its smallest member.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import ClusteringAlgorithm, EntityCluster
from repro.matching.similarity_graph import SimilarityGraph
from repro.metablocking.backends import stable_sort, unique_inverse


def component_labels(u, v, n: int):
    """Per dense node ``0..n-1``, the smallest node of its component in the
    graph with edges ``(u[i], v[i])``."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        apart = lu != lv
        if not apart.any():
            return label
        lu, lv = lu[apart], lv[apart]
        # Both are roots (labels are flat).  Each root moves under the
        # smallest root it shares an edge with, so no cycle forms, and every
        # tree joins another each round: the tree count at least halves.
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


class ConnectedComponentsClustering(ClusteringAlgorithm):
    """Transitive-closure clustering over the similarity graph.

    Clusters are numbered in ``repr`` order of their smallest member, and
    each cluster's member set is filled in :meth:`SimilarityGraph.nodes`
    order.
    """

    def cluster(self, graph: SimilarityGraph) -> list[EntityCluster]:
        lower, upper = graph.canonical()
        ids, dense = unique_inverse(np.concatenate((lower, upper)))
        label = component_labels(dense[: len(lower)], dense[len(lower) :], len(ids))
        roots = np.flatnonzero(label == np.arange(len(ids)))
        root_ids = ids[roots].tolist()
        rank = np.empty(len(ids), dtype=np.int64)
        rank[roots[sorted(range(len(roots)), key=lambda r: repr(root_ids[r]))]] = np.arange(len(roots))
        nodes = np.array(list(graph.nodes()), dtype=np.int64)
        cluster_of = rank[label[np.searchsorted(ids, nodes)]]
        cuts = np.cumsum(np.bincount(cluster_of, minlength=len(roots))).tolist()
        members = nodes[stable_sort(cluster_of)[1]].tolist()
        sets = [set(members[lo:hi]) for lo, hi in zip([0, *cuts], cuts)]
        return list(map(EntityCluster, range(len(sets)), sets))
