"""Tests of the EntityProfile data model."""

import pytest

from repro.data.profile import EntityProfile, KeyValue
from repro.exceptions import DataError


class TestKeyValue:
    def test_frozen(self):
        kv = KeyValue("name", "sony tv")
        with pytest.raises(AttributeError):
            kv.value = "other"  # type: ignore[misc]

    def test_empty_attribute_rejected(self):
        with pytest.raises(DataError):
            KeyValue("", "value")


class TestEntityProfile:
    def test_add_and_values_of(self):
        profile = EntityProfile(profile_id=0)
        profile.add("name", "Sony TV")
        profile.add("name", "Sony Television")
        assert profile.values_of("name") == ["Sony TV", "Sony Television"]

    def test_add_skips_empty_values(self):
        profile = EntityProfile(profile_id=0)
        profile.add("name", "")
        profile.add("name", None)
        profile.add("name", "   ")
        assert len(profile) == 0

    def test_add_coerces_non_strings(self):
        profile = EntityProfile(profile_id=0)
        profile.add("price", 12.5)
        assert profile.value_of("price") == "12.5"

    def test_value_of_default(self):
        profile = EntityProfile(profile_id=0)
        assert profile.value_of("missing", "n/a") == "n/a"

    def test_attribute_names(self):
        profile = EntityProfile(profile_id=0)
        profile.add("name", "a")
        profile.add("price", "1")
        assert profile.attribute_names() == {"name", "price"}

    def test_items_order(self):
        profile = EntityProfile(profile_id=0)
        profile.add("a", "1")
        profile.add("b", "2")
        assert list(profile.items()) == [("a", "1"), ("b", "2")]

    def test_tokens_schema_agnostic(self):
        profile = EntityProfile(profile_id=0)
        profile.add("name", "Sony TV")
        profile.add("description", "sony bravia tv")
        assert profile.tokens() == {"sony", "tv", "bravia"}

    def test_tokens_stopword_removal(self):
        profile = EntityProfile(profile_id=0)
        profile.add("title", "the matrix")
        assert profile.tokens(remove_stopwords=True) == {"matrix"}

    def test_text_concatenation(self):
        profile = EntityProfile(profile_id=0)
        profile.add("a", "x")
        profile.add("b", "y")
        assert profile.text() == "x y"

    def test_as_dict(self):
        profile = EntityProfile(profile_id=0)
        profile.add("name", "a")
        profile.add("name", "b")
        assert profile.as_dict() == {"name": ["a", "b"]}

    def test_repr_contains_id(self):
        profile = EntityProfile(profile_id=7, source_id=1)
        assert "id=7" in repr(profile)
