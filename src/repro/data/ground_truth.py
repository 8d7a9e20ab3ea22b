"""Ground truth: the set of true matching profile pairs.

Pairs are stored in canonical order (smaller id first) so lookups are
order-insensitive.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def canonical_pair(a: int, b: int) -> tuple[int, int]:
    """Return the pair ordered so the smaller profile id comes first."""
    return (a, b) if a <= b else (b, a)


class GroundTruth:
    """The set of true matches of an ER task."""

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        self._pairs: set[tuple[int, int]] = set()
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: int, b: int) -> None:
        """Register that profiles ``a`` and ``b`` refer to the same entity."""
        if a == b:
            return
        self._pairs.add(canonical_pair(a, b))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return canonical_pair(a, b) in self._pairs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def pairs(self) -> set[tuple[int, int]]:
        """Return a copy of the canonical pair set."""
        return set(self._pairs)

    def profile_ids(self) -> set[int]:
        """Return every profile id that appears in at least one true match."""
        ids: set[int] = set()
        for a, b in self._pairs:
            ids.add(a)
            ids.add(b)
        return ids

    def restricted_to(self, profile_ids: Iterable[int]) -> "GroundTruth":
        """Return the subset of pairs whose both endpoints are in ``profile_ids``."""
        wanted = set(profile_ids)
        return GroundTruth(
            (a, b) for a, b in self._pairs if a in wanted and b in wanted
        )

    def __repr__(self) -> str:
        return f"GroundTruth(matches={len(self._pairs)})"
