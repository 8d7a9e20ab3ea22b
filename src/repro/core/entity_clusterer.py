"""The Entity Clusterer module (Figure 5 of the paper).

Graph generation → connected components → entity generation: the similarity
graph's nodes are partitioned into equivalence clusters; profiles in the same
cluster refer to the same real-world entity.  The connected-components
algorithm (GraphX in the original) is the default; alternative algorithms can
be selected through the configuration.
"""

from __future__ import annotations

from repro.clustering.base import EntityCluster
from repro.clustering.registry import make_clustering_algorithm
from repro.core.config import ClustererConfig
from repro.data.dataset import ProfileCollection
from repro.matching.similarity_graph import SimilarityGraph


class EntityClusterer:
    """Groups matched pairs into entity clusters.

    Parameters
    ----------
    config:
        Clusterer configuration (algorithm name + optional minimum edge score).
    """

    def __init__(self, config: ClustererConfig | None = None) -> None:
        self.config = config or ClustererConfig()
        self.config.validate()
        self.algorithm = make_clustering_algorithm(self.config.algorithm)

    def cluster(self, similarity_graph: SimilarityGraph) -> list[EntityCluster]:
        """Partition the similarity graph into entity clusters."""
        graph = similarity_graph
        if self.config.min_score > 0.0:
            graph = similarity_graph.edges_above(self.config.min_score)
        return self.algorithm.cluster(graph)

    def generate_entities(
        self,
        clusters: list[EntityCluster],
        profiles: ProfileCollection,
        *,
        include_singletons: bool = False,
    ) -> list[dict[str, object]]:
        """Entity generation: merge the attribute values of each cluster.

        Returns one dictionary per entity with the cluster id, the member
        profile ids and the union of attribute values.  Profiles that matched
        nothing are included as singleton entities when requested.
        """
        entities: list[dict[str, object]] = []
        clustered_ids: set[int] = set()
        for cluster in clusters:
            clustered_ids.update(cluster.members)
            merged: dict[str, list[str]] = {}
            for profile_id in sorted(cluster.members):
                for attribute, value in profiles[profile_id].items():
                    values = merged.setdefault(attribute, [])
                    if value not in values:
                        values.append(value)
            entities.append(
                {
                    "entity_id": cluster.cluster_id,
                    "profiles": sorted(cluster.members),
                    "attributes": merged,
                }
            )
        if include_singletons:
            next_id = len(entities)
            for profile in profiles:
                if profile.profile_id in clustered_ids:
                    continue
                entities.append(
                    {
                        "entity_id": next_id,
                        "profiles": [profile.profile_id],
                        "attributes": {
                            attribute: [value] for attribute, value in profile.items()
                        },
                    }
                )
                next_id += 1
        return entities

    def __call__(self, similarity_graph: SimilarityGraph) -> list[EntityCluster]:
        return self.cluster(similarity_graph)
