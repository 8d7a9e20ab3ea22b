"""Tests of ProfileCollection, DatasetPair and source merging."""

import pytest

from repro.data.dataset import DatasetPair, ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.profile import EntityProfile
from repro.exceptions import DataError


def _profile(pid: int, source: int = 0, **attrs: str) -> EntityProfile:
    profile = EntityProfile(profile_id=pid, source_id=source)
    for key, value in attrs.items():
        profile.add(key, value)
    return profile


class TestProfileCollection:
    def test_add_and_lookup(self):
        collection = ProfileCollection([_profile(0, name="a")])
        assert collection[0].value_of("name") == "a"

    def test_duplicate_id_rejected(self):
        collection = ProfileCollection([_profile(0)])
        with pytest.raises(DataError):
            collection.add(_profile(0))

    def test_unknown_id_raises(self):
        with pytest.raises(DataError):
            ProfileCollection()[99]

    def test_contains(self):
        collection = ProfileCollection([_profile(3)])
        assert 3 in collection
        assert 4 not in collection

    def test_len_and_iter_order(self):
        collection = ProfileCollection([_profile(2), _profile(0)])
        assert len(collection) == 2
        assert [p.profile_id for p in collection] == [2, 0]

    def test_by_source(self):
        collection = ProfileCollection([_profile(0, 0), _profile(1, 1), _profile(2, 1)])
        assert len(collection.by_source(1)) == 2

    def test_clean_clean_detection(self):
        dirty = ProfileCollection([_profile(0, 0), _profile(1, 0)])
        clean = ProfileCollection([_profile(0, 0), _profile(1, 1)])
        assert not dirty.is_clean_clean
        assert clean.is_clean_clean

    def test_separator_id(self):
        collection = ProfileCollection([_profile(0, 0), _profile(1, 0), _profile(2, 1)])
        assert collection.separator_id == 1

    def test_separator_id_none_for_dirty(self):
        collection = ProfileCollection([_profile(0, 0)])
        assert collection.separator_id is None

    def test_attribute_names(self):
        collection = ProfileCollection([_profile(0, name="a"), _profile(1, price="1")])
        assert collection.attribute_names() == {"name", "price"}

    def test_attribute_names_by_source(self):
        collection = ProfileCollection(
            [_profile(0, 0, name="a"), _profile(1, 1, title="b")]
        )
        names = collection.attribute_names_by_source()
        assert names[0] == {"name"}
        assert names[1] == {"title"}

    def test_max_comparisons_clean_clean(self):
        collection = ProfileCollection(
            [_profile(0, 0), _profile(1, 0), _profile(2, 1), _profile(3, 1), _profile(4, 1)]
        )
        assert collection.max_comparisons() == 2 * 3

    def test_max_comparisons_dirty(self):
        collection = ProfileCollection([_profile(i) for i in range(5)])
        assert collection.max_comparisons() == 10

    def test_subset(self):
        collection = ProfileCollection([_profile(i) for i in range(5)])
        subset = collection.subset([1, 3])
        assert subset.ids() == [1, 3]


class TestDatasetPair:
    def test_summary(self):
        collection = ProfileCollection(
            [_profile(0, 0, name="a"), _profile(1, 1, title="a")]
        )
        pair = DatasetPair(collection, GroundTruth([(0, 1)]), name="tiny")
        summary = pair.summary()
        assert summary["profiles"] == 2
        assert summary["matches"] == 1
        assert summary["max_comparisons"] == 1

    def test_requires_ground_truth_instance(self):
        collection = ProfileCollection([_profile(0)])
        with pytest.raises(DataError):
            DatasetPair(collection, ground_truth={(0, 1)})  # type: ignore[arg-type]
