"""Tests of loose-schema (BLAST) token blocking."""

import pytest

from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.looseschema.attribute_partitioning import AttributePartitioner, AttributePartitioning
from repro.looseschema.entropy import EntropyExtractor
from repro.metablocking.backends import numpy_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="MinHash attribute LSH requires numpy"
)


def _toy_partitioning() -> AttributePartitioning:
    """Figure 2(a): {Name, Title, Abstract} and {Authors, Author} clusters."""
    return AttributePartitioning(
        clusters={
            0: {(0, "year")},
            1: {(0, "Authors"), (1, "author")},
            2: {(0, "Name"), (0, "Abstract"), (1, "title")},
        }
    )


class TestLooseSchemaKeys:
    def test_key_format(self, toy_dataset):
        blocker = LooseSchemaTokenBlocking(_toy_partitioning())
        assert blocker.key_for("simonini", "Authors") == "simonini_1"
        assert blocker.key_for("simonini", "Abstract") == "simonini_2"

    def test_unknown_attribute_goes_to_blob(self):
        blocker = LooseSchemaTokenBlocking(_toy_partitioning())
        assert blocker.key_for("token", "unknown_attribute") == "token_0"

    def test_simonini_disambiguated(self, toy_dataset):
        # Figure 2(b): the token "simonini" is split into simonini_1 (author
        # cluster: p1, p4) and simonini_2 (title/abstract cluster: p2).
        blocks = LooseSchemaTokenBlocking(_toy_partitioning()).block(toy_dataset.profiles)
        keys = {block.key: block for block in blocks}
        assert "simonini_1" in keys
        assert keys["simonini_1"].all_profiles() == {0, 3}
        # simonini_2 appears only in p2, so it generates no valid block.
        assert "simonini_2" not in keys

    @needs_numpy
    def test_fewer_or_equal_comparisons_than_schema_agnostic(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        loose = LooseSchemaTokenBlocking(partitioning).block(abt_buy_small.profiles)
        agnostic = TokenBlocking().block(abt_buy_small.profiles)
        assert len(loose.distinct_comparisons()) <= len(agnostic.distinct_comparisons())

    @needs_numpy
    def test_blob_only_equals_schema_agnostic(self, abt_buy_small):
        # With every attribute in the blob, loose-schema keys are token_0 for
        # everyone — the same candidate pairs as schema-agnostic blocking.
        blob_partitioning = AttributePartitioner(threshold=1.0).partition(
            abt_buy_small.profiles
        )
        loose = LooseSchemaTokenBlocking(blob_partitioning).block(abt_buy_small.profiles)
        agnostic = TokenBlocking().block(abt_buy_small.profiles)
        assert loose.distinct_comparisons() == agnostic.distinct_comparisons()

    @needs_numpy
    def test_entropy_attached_to_blocks(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        entropies = {cluster_id: 0.5 for cluster_id in partitioning.clusters}
        entropies[partitioning.blob_cluster_id] = 0.25
        blocks = LooseSchemaTokenBlocking(
            partitioning, cluster_entropies=entropies
        ).block(abt_buy_small.profiles)
        observed = {block.entropy for block in blocks}
        assert observed <= {0.5, 0.25}

    @needs_numpy
    def test_default_entropy_when_not_supplied(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        blocks = LooseSchemaTokenBlocking(partitioning).block(abt_buy_small.profiles)
        assert all(block.entropy == 1.0 for block in blocks)

    @needs_numpy
    def test_clean_clean_preserved(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        blocks = LooseSchemaTokenBlocking(partitioning).block(abt_buy_small.profiles)
        assert blocks.clean_clean

    @needs_numpy
    def test_distributed_matches_local(self, engine, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        local = LooseSchemaTokenBlocking(partitioning).block(abt_buy_small.profiles)
        distributed = LooseSchemaTokenBlocking(partitioning, engine=engine).block(
            abt_buy_small.profiles
        )
        assert local.distinct_comparisons() == distributed.distinct_comparisons()

    @needs_numpy
    def test_recall_stays_high(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        blocks = LooseSchemaTokenBlocking(partitioning).block(abt_buy_small.profiles)
        pairs = blocks.distinct_comparisons()
        truth = abt_buy_small.ground_truth.pairs()
        recall = len(pairs & truth) / len(truth)
        assert recall > 0.9


class TestClashingAttributeNames:
    """One attribute name may sit in a different cluster per source: the
    blocker (driver and engine) and the entropy extractor must all resolve it
    by ``(source_id, attribute)``, never by name alone."""

    def _task(self):
        left = EntityProfile(profile_id=0, source_id=0)
        left.add("name", "sony bravia")
        left.add("title", "kdl40")
        right = EntityProfile(profile_id=1, source_id=1)
        right.add("name", "kdl40 sony")
        partitioning = AttributePartitioning(
            clusters={1: {(0, "name")}, 2: {(0, "title"), (1, "name")}}
        )
        return ProfileCollection([left, right]), partitioning

    def test_local_engine_and_entropy_agree(self, engine):
        profiles, partitioning = self._task()
        entropies = EntropyExtractor(normalize=False).extract(profiles, partitioning)
        # Cluster 1 holds {sony, bravia}; cluster 2 holds {kdl40 x2, sony}.
        assert entropies[1] == 1.0
        assert 0.91 < entropies[2] < 0.92

        def keyed(blocker):
            return {
                block.key: (block.profiles_source0, block.profiles_source1, block.entropy)
                for block in blocker.block(profiles)
            }

        local = keyed(LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies))
        distributed = keyed(
            LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies, engine=engine)
        )
        # "sony" is sony_1 on the left and sony_2 on the right (no shared
        # block); only "kdl40" meets in cluster 2, with that cluster's entropy.
        assert local == distributed == {"kdl40_2": ({0}, {1}, entropies[2])}

    def test_key_for_with_source(self):
        _profiles, partitioning = self._task()
        blocker = LooseSchemaTokenBlocking(partitioning)
        assert blocker.key_for("sony", "name", source_id=0) == "sony_1"
        assert blocker.key_for("sony", "name", source_id=1) == "sony_2"
