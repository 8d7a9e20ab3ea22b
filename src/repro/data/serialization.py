"""Round-trip serialization of profiles, ground truth and results to JSON."""

from __future__ import annotations

import json
from pathlib import Path

from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.profile import EntityProfile


def profile_to_dict(profile: EntityProfile) -> dict[str, object]:
    """Serialise one profile to a JSON-compatible dict."""
    return {
        "profile_id": profile.profile_id,
        "original_id": profile.original_id,
        "source_id": profile.source_id,
        "attributes": [[kv.attribute, kv.value] for kv in profile.attributes],
    }


def profile_from_dict(data: dict[str, object]) -> EntityProfile:
    """Rebuild a profile from :func:`profile_to_dict` output; each pair goes
    through :meth:`EntityProfile.add` (``str``, ``strip``, empty / null dropped)."""
    profile = EntityProfile(
        profile_id=int(data["profile_id"]),
        original_id=str(data.get("original_id", "")),
        source_id=int(data.get("source_id", 0)),
    )
    for attribute, value in data.get("attributes", []):
        profile.add(attribute, value)
    return profile


def save_collection(collection: ProfileCollection, path: str | Path) -> None:
    """Write a profile collection to a JSON file."""
    payload = [profile_to_dict(p) for p in collection]
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_collection(path: str | Path) -> ProfileCollection:
    """Read a profile collection written by :func:`save_collection`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ProfileCollection(profile_from_dict(item) for item in payload)


def save_ground_truth(ground_truth: GroundTruth, path: str | Path) -> None:
    """Write ground-truth pairs to a JSON file."""
    Path(path).write_text(
        json.dumps(sorted(ground_truth.pairs())), encoding="utf-8"
    )


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read ground-truth pairs written by :func:`save_ground_truth`."""
    pairs = json.loads(Path(path).read_text(encoding="utf-8"))
    return GroundTruth((int(a), int(b)) for a, b in pairs)
