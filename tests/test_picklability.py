"""Pickle round-trip coverage for the entity profiles.

A checkpoint pickles the run's input profiles with its state; these tests
round-trip them through :mod:`pickle` so a picklability regression surfaces
as a focused unit failure instead of a checkpoint error.
"""

from __future__ import annotations

import pickle

from repro.data.profile import EntityProfile, KeyValue


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestProfilePickling:
    def test_entity_profile_roundtrip(self):
        profile = EntityProfile(profile_id=7, original_id="r7", source_id=1)
        profile.add("name", "sony bravia tv")
        profile.add("price", 499)
        clone = _roundtrip(profile)
        assert clone == profile
        assert clone.attributes == [
            KeyValue("name", "sony bravia tv"),
            KeyValue("price", "499"),
        ]

    def test_profile_partition_roundtrip(self):
        partition = [EntityProfile(profile_id=i, original_id=str(i)) for i in range(5)]
        assert _roundtrip(partition) == partition
