"""Tests of the attribute LSH of the loose-schema generator."""

from repro.looseschema.lsh import AttributeLSH, build_attribute_profiles


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


class TestAttributeLSH:
    def test_similar_attributes_are_candidates(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        lsh = AttributeLSH(num_perm=128, num_bands=64)
        similarities = lsh.similarities(attribute_profiles)
        # name (abt) and title (buy) share most tokens → must be a candidate pair
        # with a reasonably high similarity.
        pair_keys = {frozenset((a[1], b[1])) for a, b in similarities}
        assert frozenset(("name", "title")) in pair_keys

    def test_cross_source_only(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        lsh = AttributeLSH(num_perm=64, num_bands=32)
        similarities = lsh.similarities(attribute_profiles, cross_source_only=True)
        for (a, b) in similarities:
            assert a[0] != b[0]

    def test_within_source_allowed_when_disabled(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        lsh = AttributeLSH(num_perm=64, num_bands=32)
        all_pairs = lsh.similarities(attribute_profiles, cross_source_only=False)
        cross_only = lsh.similarities(attribute_profiles, cross_source_only=True)
        assert len(all_pairs) >= len(cross_only)

    def test_exact_similarity_in_unit_interval(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        similarities = AttributeLSH().similarities(attribute_profiles)
        assert all(0.0 <= s <= 1.0 for s in similarities.values())

    def test_estimate_mode(self, abt_buy_small):
        attribute_profiles = build_attribute_profiles(abt_buy_small.profiles)
        lsh = AttributeLSH(num_perm=128, num_bands=64)
        estimated = lsh.similarities(attribute_profiles, use_exact=False)
        assert all(0.0 <= s <= 1.0 for s in estimated.values())

    def test_signatures_shape(self, toy_dataset):
        attribute_profiles = build_attribute_profiles(toy_dataset.profiles)
        lsh = AttributeLSH(num_perm=32)
        signatures = lsh.signatures(attribute_profiles)
        assert all(sig.shape == (32,) for sig in signatures.values())

    def test_dirty_single_source_pairs(self, dirty_persons_small):
        attribute_profiles = build_attribute_profiles(dirty_persons_small.profiles)
        lsh = AttributeLSH(num_perm=64, num_bands=32)
        # Single-source data: cross_source_only must not suppress every pair.
        similarities = lsh.similarities(attribute_profiles, cross_source_only=True)
        assert isinstance(similarities, dict)
