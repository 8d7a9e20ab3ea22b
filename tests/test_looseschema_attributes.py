"""Tests of the attribute token views and the exact attribute similarities."""

from repro.looseschema.attribute_partitioning import attribute_similarities
from repro.looseschema.attributes import AttributeTokens, build_attribute_profiles
from repro.utils.tokenize import token_table


def columns_of(profiles):
    return AttributeTokens.of(token_table(profiles))


class TestBuildAttributeProfiles:
    def test_one_profile_per_source_attribute(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        assert (0, "name") in attribute_profiles
        assert (1, "title") in attribute_profiles
        assert (0, "title") not in attribute_profiles

    def test_tokens_accumulated(self, toy_dataset):
        attribute_profiles = build_attribute_profiles(toy_dataset.profiles)
        name_tokens = attribute_profiles[(0, "Name")].tokens
        assert "blast" in name_tokens
        assert "sparker" in name_tokens

    def test_value_counts(self, toy_dataset):
        attribute_profiles = build_attribute_profiles(toy_dataset.profiles)
        counts = attribute_profiles[(0, "Authors")].value_counts
        assert counts.get("simonini", 0) >= 1


class TestAttributeSimilarities:
    def test_every_cross_source_pair_in_key_order(self, abt_buy_small):
        similarities = attribute_similarities(columns_of(abt_buy_small.profiles))
        names = abt_buy_small.profiles.attribute_names_by_source()
        assert len(similarities) == len(names[0]) * len(names[1])
        assert all(a[0] != b[0] and a < b for a, b in similarities)
        assert list(similarities) == sorted(similarities)
        assert similarities[((0, "name"), (1, "title"))] > 0.3

    def test_in_unit_interval(self, abt_buy_small):
        similarities = attribute_similarities(columns_of(abt_buy_small.profiles))
        assert all(0.0 <= s <= 1.0 for s in similarities.values())

    def test_dirty_single_source_scores_all_pairs(self, dirty_persons_small):
        similarities = attribute_similarities(columns_of(dirty_persons_small.profiles))
        attributes = dirty_persons_small.profiles.attribute_names_by_source()[0]
        assert len(similarities) == len(attributes) * (len(attributes) - 1) // 2
