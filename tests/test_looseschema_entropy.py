"""Tests of the entropy extractor."""

import math

from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor, shannon_entropy


class TestShannonEntropy:
    def test_uniform_two_outcomes(self):
        assert math.isclose(shannon_entropy([5, 5]), 1.0)

    def test_single_outcome_zero(self):
        assert shannon_entropy([10]) == 0.0

    def test_empty_zero(self):
        assert shannon_entropy([]) == 0.0

    def test_zero_counts_ignored(self):
        assert math.isclose(shannon_entropy([5, 5, 0]), 1.0)

    def test_more_outcomes_more_entropy(self):
        assert shannon_entropy([1, 1, 1, 1]) > shannon_entropy([2, 2])

    def test_skew_reduces_entropy(self):
        assert shannon_entropy([99, 1]) < shannon_entropy([50, 50])


class TestEntropyExtractor:
    def test_every_cluster_has_entropy(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        entropies = EntropyExtractor().extract(abt_buy_small.profiles, partitioning)
        assert set(entropies) == set(partitioning.clusters)

    def test_normalized_max_is_one(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        entropies = EntropyExtractor(normalize=True).extract(
            abt_buy_small.profiles, partitioning
        )
        assert math.isclose(max(entropies.values()), 1.0)

    def test_unnormalized_values_positive(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        entropies = EntropyExtractor(normalize=False).extract(
            abt_buy_small.profiles, partitioning
        )
        assert all(value >= 0.0 for value in entropies.values())

    def test_high_variability_cluster_has_higher_entropy(self):
        # The paper's intuition: clusters with high value variability get
        # higher entropy than clusters with few distinct values.
        from repro.data.dataset import ProfileCollection
        from repro.data.profile import EntityProfile
        from repro.looseschema.attribute_partitioning import AttributePartitioning

        profiles = ProfileCollection()
        for i in range(30):
            profile = EntityProfile(profile_id=i, source_id=0)
            profile.add("title", f"unique product title number {i} variant {i * 7}")
            profile.add("condition", "new" if i % 2 else "used")
            profiles.add(profile)
        partitioning = AttributePartitioning(
            clusters={0: set(), 1: {(0, "title")}, 2: {(0, "condition")}}
        )
        entropies = EntropyExtractor(normalize=False).extract(profiles, partitioning)
        assert entropies[1] > entropies[2]

    def test_callable_interface(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=1.0).partition(abt_buy_small.profiles)
        extractor = EntropyExtractor()
        assert extractor(abt_buy_small.profiles, partitioning) == extractor.extract(
            abt_buy_small.profiles, partitioning
        )
