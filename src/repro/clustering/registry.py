"""Name-based construction of clustering algorithms."""

from __future__ import annotations

from repro.clustering.base import ClusteringAlgorithm
from repro.clustering.center_clustering import CenterClustering
from repro.clustering.connected_components import ConnectedComponentsClustering
from repro.clustering.merge_center import MergeCenterClustering
from repro.clustering.unique_mapping import UniqueMappingClustering
from repro.exceptions import ClusteringError

_ALGORITHMS = {
    "connected_components": ConnectedComponentsClustering,
    "center": CenterClustering,
    "merge_center": MergeCenterClustering,
    "unique_mapping": UniqueMappingClustering,
}


def make_clustering_algorithm(name: "str | ClusteringAlgorithm") -> ClusteringAlgorithm:
    """Build a clustering algorithm from its name.

    Valid names: ``connected_components`` (the paper's default), ``center``,
    ``merge_center``, ``unique_mapping``.
    """
    if isinstance(name, ClusteringAlgorithm):
        return name
    try:
        algorithm_class = _ALGORITHMS[name.lower()]
    except KeyError as exc:
        valid = ", ".join(sorted(_ALGORITHMS))
        raise ClusteringError(
            f"unknown clustering algorithm {name!r}; valid algorithms: {valid}"
        ) from exc
    return algorithm_class()
