"""Tests of JSON round-trip serialization."""

import json

from repro.core.sparker import SparkER
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.profile import EntityProfile
from repro.data.serialization import (
    load_collection,
    load_ground_truth,
    profile_from_dict,
    profile_to_dict,
    save_collection,
    save_ground_truth,
)


def _profile(pid: int) -> EntityProfile:
    profile = EntityProfile(profile_id=pid, original_id=f"orig-{pid}", source_id=pid % 2)
    profile.add("name", f"product {pid}")
    profile.add("price", str(pid * 10))
    return profile


class TestProfileSerialization:
    def test_roundtrip(self):
        original = _profile(3)
        rebuilt = profile_from_dict(profile_to_dict(original))
        assert rebuilt.profile_id == original.profile_id
        assert rebuilt.original_id == original.original_id
        assert rebuilt.source_id == original.source_id
        assert list(rebuilt.items()) == list(original.items())


class TestCollectionSerialization:
    def test_roundtrip(self, tmp_path):
        collection = ProfileCollection([_profile(i) for i in range(5)])
        path = tmp_path / "profiles.json"
        save_collection(collection, path)
        rebuilt = load_collection(path)
        assert len(rebuilt) == 5
        assert rebuilt[2].value_of("name") == "product 2"

    def test_preserves_sources(self, tmp_path):
        collection = ProfileCollection([_profile(i) for i in range(4)])
        path = tmp_path / "profiles.json"
        save_collection(collection, path)
        assert load_collection(path).is_clean_clean == collection.is_clean_clean

    def test_raw_json_values_load_like_add(self, tmp_path):
        # A hand-written file: numbers, booleans, null and padding, as JSON has
        # them; profiles 2k and 2k + 1 (one per source) share their values.
        def raw(pid):
            return [["price", 90 + pid // 2], ["weight", 1.5 + pid // 2], ["stock", pid < 2],
                    ["brand", None], ["name", f"  item{pid // 2}  "], ["note", "   "]]

        payload = [
            {"profile_id": pid, "source_id": pid % 2, "attributes": raw(pid)} for pid in range(4)
        ]
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_collection(path)
        for pid in range(4):
            expected = EntityProfile(profile_id=pid, source_id=pid % 2)
            for attribute, value in raw(pid):
                expected.add(attribute, value)
            assert loaded[pid] == expected
        assert list(loaded[0].items()) == [
            ("price", "90"), ("weight", "1.5"), ("stock", "True"), ("name", "item0")
        ]
        assert SparkER().run(loaded).candidate_pairs == {(0, 1), (2, 3)}


class TestGroundTruthSerialization:
    def test_roundtrip(self, tmp_path):
        truth = GroundTruth([(1, 2), (3, 4)])
        path = tmp_path / "gt.json"
        save_ground_truth(truth, path)
        rebuilt = load_ground_truth(path)
        assert rebuilt.pairs() == truth.pairs()

    def test_empty(self, tmp_path):
        path = tmp_path / "gt.json"
        save_ground_truth(GroundTruth(), path)
        assert len(load_ground_truth(path)) == 0
