"""Tests of attribute partitioning (the BLAST loose-schema generator)."""

import pytest

from repro.exceptions import BlockingError
from repro.looseschema.attribute_partitioning import (
    AttributePartitioner,
    AttributePartitioning,
)


class TestAttributePartitioner:
    def test_threshold_one_gives_blob_only(self, abt_buy_small):
        # Figure 6(a): threshold at the maximum → schema-agnostic behaviour,
        # every attribute falls in the blob cluster.
        partitioning = AttributePartitioner(threshold=1.0).partition(abt_buy_small.profiles)
        assert partitioning.non_blob_clusters() == {}
        blob = partitioning.clusters[partitioning.blob_cluster_id]
        assert len(blob) == len(abt_buy_small.profiles.attribute_names_by_source()[0]) + len(
            abt_buy_small.profiles.attribute_names_by_source()[1]
        )

    def test_lower_threshold_creates_clusters(self, abt_buy_small):
        # Figure 6(b): lowering the threshold produces attribute clusters.
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        assert len(partitioning.non_blob_clusters()) >= 1

    def test_name_title_clustered_together(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        assert partitioning.cluster_of("name") == partitioning.cluster_of("title")
        assert partitioning.cluster_of("name") != partitioning.blob_cluster_id

    def test_clusters_are_disjoint(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        seen: set = set()
        for members in partitioning.clusters.values():
            assert seen.isdisjoint(members)
            seen.update(members)

    def test_every_attribute_assigned(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        assigned = set().union(*partitioning.clusters.values())
        names = abt_buy_small.profiles.attribute_names_by_source()
        expected = {(0, a) for a in names[0]} | {(1, a) for a in names[1]}
        assert assigned == expected

    def test_invalid_threshold(self):
        with pytest.raises(BlockingError):
            AttributePartitioner(threshold=1.5)

    def test_deterministic(self, abt_buy_small):
        first = AttributePartitioner(threshold=0.2).partition(abt_buy_small.profiles)
        second = AttributePartitioner(threshold=0.2).partition(abt_buy_small.profiles)
        assert first.clusters == second.clusters

    def test_bibliographic_dataset(self, bibliographic_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(
            bibliographic_small.profiles
        )
        # title (source 0) and reference (source 1) share most tokens.
        assert partitioning.cluster_of("title") == partitioning.cluster_of("reference")


class TestAttributePartitioning:
    def _partitioning(self) -> AttributePartitioning:
        return AttributePartitioning(
            clusters={
                0: {(0, "price")},
                1: {(0, "name"), (1, "title")},
                2: {(0, "description"), (1, "short_descr")},
            }
        )

    def test_cluster_of_known_attribute(self):
        assert self._partitioning().cluster_of("name") == 1
        assert self._partitioning().cluster_of("short_descr") == 2

    def test_cluster_of_unknown_attribute_is_blob(self):
        assert self._partitioning().cluster_of("unknown") == 0

    def test_cluster_of_with_source(self):
        assert self._partitioning().cluster_of("name", source_id=0) == 1

    def test_cluster_by_attribute_mapping(self):
        mapping = self._partitioning().cluster_by_attribute()
        assert mapping[(0, "name")] == mapping[(1, "title")] == 1
        assert mapping[(0, "price")] == 0
        assert (1, "name") not in mapping  # resolved per source, never by name alone

    def test_num_clusters(self):
        assert self._partitioning().num_clusters() == 3

    def test_describe_lines(self):
        lines = self._partitioning().describe()
        assert any("blob" in line for line in lines)
        assert any("cluster 1" in line for line in lines)

    def test_move_attribute(self):
        # The supervised edit of Figure 6(c): move an attribute to another cluster.
        partitioning = self._partitioning()
        partitioning.move_attribute("description", 0, target_cluster=3)
        assert partitioning.cluster_of("description") == 3
        assert (0, "description") not in partitioning.clusters[2]

    def test_move_attribute_creates_cluster(self):
        partitioning = self._partitioning()
        partitioning.move_attribute("price", 0, target_cluster=9)
        assert 9 in partitioning.clusters
