"""Base class of blocking strategies and the key-grouping routine they share."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Iterable

from repro.blocking.block import Block, BlockCollection
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.engine.context import EngineContext


class Blocker(ABC):
    """A blocking strategy maps a profile collection to a block collection."""

    @abstractmethod
    def block(self, profiles: ProfileCollection) -> BlockCollection:
        """Build the block collection for ``profiles``."""

    def __call__(self, profiles: ProfileCollection) -> BlockCollection:
        return self.block(profiles)


def block_by_keys(
    profiles: ProfileCollection,
    keys_of: Callable[[EntityProfile], Iterable[Hashable]],
    describe: Callable[[Hashable], tuple[str, float]],
    *,
    engine: EngineContext | None = None,
    stage_name: str = "blocking.keys",
) -> BlockCollection:
    """One block per key that induces a comparison, sorted by block key.

    ``keys_of(profile)`` yields the profile's distinct blocking keys and
    ``describe(key)`` names a key's block and gives its entropy.  Driver-side
    the profiles stream straight into the per-source member lists of each
    key; with an ``engine`` the same keys travel through ``flatMap`` →
    ``groupByKey`` (the structure SparkER runs on Spark) and the grouped
    members are read back the same way.
    """
    clean_clean = profiles.is_clean_clean
    if engine is None:
        memberships = (
            (profile.profile_id, profile.source_id, keys_of(profile)) for profile in profiles
        )
    else:
        grouped = (
            engine.parallelize(list(profiles))
            .flatMap(
                lambda p: [(key, (p.profile_id, p.source_id)) for key in keys_of(p)],
                name=stage_name,
            )
            .groupByKey()
            .collect()
        )
        memberships = (
            (profile_id, source_id, (key,))
            for key, members in grouped
            for profile_id, source_id in members
        )

    sides: tuple[dict, dict] = ({}, {})
    for profile_id, source_id, keys in memberships:
        members_of = sides[1 if clean_clean and source_id == 1 else 0]
        for key in keys:
            members = members_of.get(key)
            if members is None:
                members_of[key] = [profile_id]
            else:
                members.append(profile_id)

    blocks = []
    for key, members0 in sides[0].items():
        members1 = sides[1].get(key, ())
        if members1 if clean_clean else len(members0) > 1:
            name, entropy = describe(key)
            blocks.append(Block(name, set(members0), set(members1), entropy, clean_clean))
    blocks.sort(key=lambda block: block.key)
    return BlockCollection(blocks, clean_clean=clean_clean)
