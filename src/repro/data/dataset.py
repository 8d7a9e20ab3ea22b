"""Profile collections and clean-clean dataset pairs."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.data.profile import EntityProfile
from repro.exceptions import DataError


class ProfileCollection:
    """An ordered collection of :class:`EntityProfile` with id-based lookup.

    The collection may hold profiles from one source (dirty ER) or from two
    sources (clean-clean ER, e.g. Abt + Buy); :attr:`separator_id` marks the
    last profile id of the first source in the latter case, mirroring how the
    original SparkER passes the two datasets to its Spark jobs.
    """

    def __init__(self, profiles: Iterable[EntityProfile] = ()) -> None:
        self._profiles: list[EntityProfile] = []
        self._by_id: dict[int, EntityProfile] = {}
        for profile in profiles:
            self.add(profile)

    def add(self, profile: EntityProfile) -> None:
        """Append a profile; ids must be unique."""
        if profile.profile_id in self._by_id:
            raise DataError(f"duplicate profile id {profile.profile_id}")
        self._profiles.append(profile)
        self._by_id[profile.profile_id] = profile

    def __iter__(self) -> Iterator[EntityProfile]:
        return iter(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def __getitem__(self, profile_id: int) -> EntityProfile:
        try:
            return self._by_id[profile_id]
        except KeyError as exc:
            raise DataError(f"unknown profile id {profile_id}") from exc

    def __contains__(self, profile_id: int) -> bool:
        return profile_id in self._by_id

    def ids(self) -> list[int]:
        """Return every profile id in insertion order."""
        return [p.profile_id for p in self._profiles]

    def by_source(self, source_id: int) -> list[EntityProfile]:
        """Return the profiles of one source."""
        return [p for p in self._profiles if p.source_id == source_id]

    def sources(self) -> set[int]:
        """Return the distinct source ids present."""
        return {p.source_id for p in self._profiles}

    @property
    def is_clean_clean(self) -> bool:
        """True when profiles come from exactly two sources."""
        return len(self.sources()) == 2

    @property
    def separator_id(self) -> int | None:
        """Largest profile id of source 0 when clean-clean, else ``None``."""
        if not self.is_clean_clean:
            return None
        return max(p.profile_id for p in self._profiles if p.source_id == 0)

    def attribute_names(self) -> set[str]:
        """Union of attribute names across all profiles."""
        names: set[str] = set()
        for profile in self._profiles:
            names.update(profile.attribute_names())
        return names

    def attribute_names_by_source(self) -> dict[int, set[str]]:
        """Attribute names grouped by source id."""
        result: dict[int, set[str]] = {}
        for profile in self._profiles:
            result.setdefault(profile.source_id, set()).update(profile.attribute_names())
        return result

    def max_comparisons(self) -> int:
        """Number of comparisons of the naive all-pairs solution.

        For clean-clean ER only cross-source pairs count; for dirty ER every
        unordered pair counts.
        """
        if self.is_clean_clean:
            n0 = len(self.by_source(0))
            n1 = len(self.by_source(1))
            return n0 * n1
        n = len(self._profiles)
        return n * (n - 1) // 2

    def subset(self, profile_ids: Iterable[int]) -> "ProfileCollection":
        """Return a new collection containing only ``profile_ids`` (order kept)."""
        wanted = set(profile_ids)
        return ProfileCollection(p for p in self._profiles if p.profile_id in wanted)

    def __repr__(self) -> str:
        return (
            f"ProfileCollection(n={len(self)}, sources={sorted(self.sources())}, "
            f"attributes={len(self.attribute_names())})"
        )


@dataclass
class DatasetPair:
    """A clean-clean ER task: two sources merged into one collection + ground truth."""

    profiles: ProfileCollection
    ground_truth: "GroundTruth"
    name: str = "dataset"

    def __post_init__(self) -> None:
        from repro.data.ground_truth import GroundTruth  # local import to avoid cycle

        if not isinstance(self.ground_truth, GroundTruth):
            raise DataError("ground_truth must be a GroundTruth instance")

    def summary(self) -> dict[str, object]:
        """Basic statistics of the dataset."""
        return {
            "name": self.name,
            "profiles": len(self.profiles),
            "source0": len(self.profiles.by_source(0)),
            "source1": len(self.profiles.by_source(1)),
            "attributes": len(self.profiles.attribute_names()),
            "matches": len(self.ground_truth),
            "max_comparisons": self.profiles.max_comparisons(),
        }

